"""Heisenberg-group oracle speaking coarsedim's line protocol.

Elements are tokens "a,b,c" for the integer matrix with entries a, b, c;
``MUL p q`` answers the product (a+a', b+b', c+c'+a*b').  On end of input
the oracle appends the number of MUL lines it answered to the file named
by its first argument, so the benchmark counts round trips at the source.

    python3 perfbench/oracle.py COUNT_FILE
"""

import sys


def main(count_path: str) -> int:
    calls = 0
    out = sys.stdout
    for line in sys.stdin:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "MUL":
            out.write("ERR\n")
            out.flush()
            continue
        a, b, c = (int(v) for v in parts[1].split(","))
        d, e, f = (int(v) for v in parts[2].split(","))
        out.write(f"{a + d},{b + e},{c + f + a * e}\n")
        out.flush()
        calls += 1
    with open(count_path, "a", encoding="utf-8") as fh:
        fh.write(f"{calls}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
