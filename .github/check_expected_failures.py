"""Pass when a pytest JUnit XML report fails exactly the documented tests.

    python .github/check_expected_failures.py tier1.xml

The expected set is the three acceptance tests README.md lists under
"Expected acceptance failures". Any other failure or error, or one of the
three passing, makes this exit 1, so the set can only change together with
this list and the README.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_1_delta_split_kernel[case1]",
    "tests.test_acceptance::test_criterion_2_delta_legacy[case1]",
    "tests.test_acceptance::test_criterion_7_legacy_slope_comparison",
}


def failing_tests(path: str) -> tuple[set[str], int]:
    """IDs of the failed or errored test cases in the report, and the number of cases."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return failed, len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed, total = failing_tests(argv[1])
    unexpected, missing = sorted(failed - EXPECTED), sorted(EXPECTED - failed)
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in missing:
        print(f"expected failure did not fail: {name}")
    print(f"{total} test cases, {len(failed)} failed")
    return 1 if unexpected or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
