"""Suite-wide test settings."""

from hypothesis import settings

# One policy for every property test: a fixed, small example set, so that
# runs repeat exactly and stay fast; no deadline, since a single case may
# push iterates through the algebra.
settings.register_profile("ergclt", max_examples=25, deadline=None, derandomize=True)
# The same policy with a larger fixed example set, for the reference
# property tests of the orbit engines and pw_sum
# (`--hypothesis-profile=ergclt-deep`).
settings.register_profile("ergclt-deep", max_examples=400, deadline=None, derandomize=True)
settings.load_profile("ergclt")
