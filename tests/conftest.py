import hypothesis

hypothesis.settings.register_profile(
    "qadic",
    deadline=None,
    derandomize=True,
    max_examples=200,
)
hypothesis.settings.load_profile("qadic")

