from hypothesis import settings

# Property tests draw the same examples on every run and are not timed out on
# slow hosts; tests that set their own settings override these per field.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
