from hypothesis import settings

settings.register_profile("kmcds", max_examples=60, deadline=None, derandomize=True)
# deeper runs of the same derandomized tests: --hypothesis-profile=kmcds-deep
settings.register_profile("kmcds-deep", max_examples=600, deadline=None, derandomize=True)
settings.load_profile("kmcds")
