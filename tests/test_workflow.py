"""Static checks on the CI workflow."""

import pathlib
import re

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# a verify command, as a shell line or as a Python argument list
_VERIFY = re.compile(r"""qderiv\.cli verify|"qderiv\.cli", "verify\"""")
# a bound flag with its value written out
_BOUND = re.compile(r"""--(n|order|bound-bruteforce)\b["', ]+\d+""")


def test_no_verify_step_states_a_bound():
    # the bounds live in qderiv.verify (Bounds, DEEP, _N_LIMITS), so a CI step
    # that runs a check past its default reads them there
    steps = re.split(r"\n(?=\s*- name:)", WORKFLOW.read_text())
    stated = [
        "%s: %s" % (step.split("\n", 1)[0].strip(), match.group(0))
        for step in steps
        if _VERIFY.search(step)
        for match in _BOUND.finditer(step)
    ]
    assert not stated, "verify steps with a bound written out: %s" % "; ".join(stated)
