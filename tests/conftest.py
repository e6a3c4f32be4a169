"""One hypothesis profile for every property test: the same examples on
every run and machine, no example database, and no per-example deadline
(a shared runner can stall any example past the default 200 ms). A test's
own `@settings` still set its `max_examples`."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
