"""A fixed slice of Python work that shares no code with ccc.

The benchmark runs this file as a fresh process between ``ccc``
invocations.  Like an invocation, the process starts an interpreter,
imports a standard module and does Fraction, tuple and dict work, so
its wall time measures how fast the host starts and runs Python at the
moment.  See NOTES.md, "Host drift".
"""

from fractions import Fraction


def main() -> None:
    total = Fraction(0)
    seen = {}
    for i in range(1, 3500):
        q = Fraction(i % 97 - 48, i % 89 + 1)
        total += q * q
        seen[(i % 61, q.numerator)] = total


if __name__ == "__main__":
    main()
