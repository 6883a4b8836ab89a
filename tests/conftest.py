from hypothesis import settings

# the same examples on every run, no example database written or replayed,
# and no per-example deadline on a loaded machine
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")
