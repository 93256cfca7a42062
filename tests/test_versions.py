"""The library versions behind the bit pins."""

import pathlib
from importlib import metadata

CONSTRAINTS = pathlib.Path(__file__).resolve().parent.parent / "ci" / "constraints.txt"


def pinned_versions():
    """{name: version} of the `name==version` lines of ci/constraints.txt."""
    lines = (line.split("#")[0].strip() for line in CONSTRAINTS.read_text().splitlines())
    return dict(line.split("==") for line in lines if line)


def test_running_versions_are_the_pinned_ones():
    """The byte pins and the example sets of the property tests were
    recorded under the versions in ci/constraints.txt.  Under others a pin
    can fail with no hint of the cause, so this test names the difference."""
    pinned = pinned_versions()
    running = {name: metadata.version(name) for name in pinned}
    assert running == pinned, f"running {running}, but ci/constraints.txt pins {pinned}"
