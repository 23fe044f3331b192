"""Time the word kernel, and the layers above it, on their hot operations.

Usage: python3 benchmarks/bench_kernel.py [--repeats N] [--json PATH]

Twelve of the 24 rows run twosquares.kernel: reduction, products,
square roots, words_of_length and the witness search.  The other twelve
run outside it: the fold into the four maps onto SL(2,3) (two rows),
parse on the run-length form str(Word) prints, lift_chain on random
words and on conjugated loops, str(Word), the text of P and Q, P's
factor report on the loop words of length <= 10, the text check
--format json prints, cli.main on chain and ladder --format json, its
output captured, and analyze on products of two squares.  Each row
reports the best wall time of N runs.  --json also writes the rows
(name and best ms), the repeats, the Python version and the kernel
backend to PATH.
"""

import argparse
import contextlib
import io
import json
import platform
import random
import time

from twosquares import (Word, analyze, cli, commutator, conjugate, kernel, lift_chain, obstructions,
                        parse, quotients)


def random_codes(rng, length):
    return bytes(rng.randrange(4) for _ in range(length))


def random_reduced_codes(rng, length):
    if length == 0:
        return b""
    codes = [rng.randrange(4)]
    for _ in range(length - 1):
        c = rng.randrange(3)
        if c >= codes[-1] ^ 1:
            c += 1
        codes.append(c)
    return bytes(codes)


def random_loop(rng, length):
    """A reduced loop word of about length letters: a random walk, closed straight."""
    codes = random_reduced_codes(rng, length)
    a = codes.count(0) - codes.count(1)
    b = codes.count(2) - codes.count(3)
    return Word(codes + bytes([1 if a > 0 else 0]) * abs(a) + bytes([3 if b > 0 else 2]) * abs(b))


def short_loops(rng, count, lo, hi):
    """count random reduced loops of lo to hi letters."""
    loops = []
    while len(loops) < count:
        w = random_loop(rng, rng.randint(lo, hi))
        if lo <= len(w) <= hi:
            loops.append(w)
    return loops


def conjugated_commutator(rng, length, m_step=1):
    """h [x^m, y^n] h^-1 of about length letters, 48 <= m, n <= 72, m a multiple of m_step."""
    m, n = rng.randrange(48, 73, m_step), rng.randint(48, 72)
    core = commutator(Word("x") ** m, Word("y") ** n)
    h = Word(random_reduced_codes(rng, (length - len(core)) // 2))
    return conjugate(core, h)


def conjugated_square(rng, length, prefix):
    """h c c h^-1 of exactly length letters, for random reduced h of prefix
    letters and c cyclically reduced; redrawn until nothing cancels."""
    while True:
        h = random_reduced_codes(rng, prefix)
        c = random_reduced_codes(rng, (length - 2 * prefix) // 2)
        w = kernel.mul(kernel.mul(h, kernel.mul(c, c)), kernel.inv(h))
        if len(w) == length:
            return w


def square_pair(rng, a_length, length):
    """a^2 b^2 of about length letters, for random reduced a of a_length letters and b."""
    a = random_reduced_codes(rng, a_length)
    b = random_reduced_codes(rng, (length - 2 * a_length) // 2)
    return kernel.mul(kernel.mul(a, a), kernel.mul(b, b))


def bench_reduce(data):
    return [kernel.reduce_word(raw) for raw in data]


def bench_mul(data):
    return [kernel.mul(u, v) for u, v in data]


def bench_square_root(data):
    return [kernel.square_root(w) for w in data]


def bench_search(data):
    return [kernel.search_square_pair(g, bound) for g, bound in data]


def bench_fold(data):
    """The images of each word under the four maps onto SL(2,3)."""
    return [quotients.images(g) for g in data]


def bench_parse(data):
    return [parse(expr) for expr in data]


def bench_lift(data):
    return [lift_chain(w) for w in data]


def bench_str(data):
    """A fresh Word per run, so that no run reads the text an earlier one kept."""
    return [str(Word._from_reduced(codes)) for codes in data]


def bench_render(data):
    return [(str(c.P), str(c.Q)) for c in data]


def bench_factor_reports(data):
    """P's factor report, given each loop's chain and phi_1."""
    return [obstructions._factor_report(chain, phi1) for chain, phi1 in data]


def bench_report_json(data):
    """The text check --format json prints for each report."""
    return [cli._report_json(report) for report in data]


def bench_cli(argvs):
    """cli.main on each command line, its output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(argv) for argv in argvs]


def bench_analyze(data):
    """analyze at bound 2: H's test and the search's sieve share one fold of each word."""
    return [analyze(w, bound=2) for w in data]


def loop_chains(max_len):
    """The chain and phi_1 of every loop word of length <= max_len."""
    chains = (lift_chain(Word(codes)) for n in range(max_len + 1)
              for codes in kernel.words_of_length(n)
              if codes.count(0) == codes.count(1) and codes.count(2) == codes.count(3))
    return [(c, c.P.substitute_x1().taylor_coeff(1)) for c in chains]


def bench_enumerate(n):
    return sum(1 for _ in kernel.words_of_length(n))


def bench_sweep(data):
    """Criterion-8 style scan: search every short balanced word."""
    max_len, bound = data
    hits = 0
    for n in range(max_len + 1):
        for w in kernel.words_of_length(n):
            if w.count(0) != w.count(1) or w.count(2) != w.count(3):
                continue
            a, b, _ = kernel.search_square_pair(w, bound)
            if a is not None:
                hits += 1
    return hits


def make_workloads(rng):
    return [
        ("reduce_word (500 x len 2000)",
         bench_reduce, [random_codes(rng, 2000) for _ in range(500)]),
        ("mul (5000 x len 200)",
         bench_mul, [(random_reduced_codes(rng, 200), random_reduced_codes(rng, 200))
                     for _ in range(5000)]),
        ("square_root (5000 x len 400)",
         bench_square_root,
         [kernel.mul(w, w) for w in
          (random_reduced_codes(rng, 200) for _ in range(5000))]),
        ("words_of_length (all 236196 of length 11)",
         bench_enumerate, 11),
        ("search miss ([x,y], bound 8)",
         bench_search, [(bytes([0, 2, 1, 3]), 8)]),
        ("search miss ([x,y], bound 9)",
         bench_search, [(bytes([0, 2, 1, 3]), 9)]),
        ("search miss (5 x len 2000, bound 5)",
         bench_search, [(random_reduced_codes(rng, 2000), 5) for _ in range(5)]),
        ("search miss (5 x len 40000, bound 5)",
         bench_search, [(random_reduced_codes(rng, 40000), 5) for _ in range(5)]),
        ("sweep (|g| <= 7, bound 4)",
         bench_sweep, (7, 4)),
        # drawn last, so that they change none of the words drawn for the rows above
        ("fold into 4 maps (5000 x len 28)",
         bench_fold, [random_reduced_codes(rng, 28) for _ in range(5000)]),
        ("fold into 4 maps (5 x len 40000)",
         bench_fold, [random_reduced_codes(rng, 40000) for _ in range(5)]),
        # the form str(Word) prints, in which the workloads' words reach parse
        ("parse run-length (5 x len 40000)",
         bench_parse, [str(Word(random_reduced_codes(rng, 40000))) for _ in range(5)]),
        ("lift_chain (5 x len 40000)",
         bench_lift, [Word(random_reduced_codes(rng, 40000)) for _ in range(5)]),
        ("str(Word) (5 x len 40000)",
         bench_str, [random_reduced_codes(rng, 40000) for _ in range(5)]),
        ("lift_chain conjugated loop (5 x len 40000)",
         bench_lift, [conjugated_commutator(rng, 40000) for _ in range(5)]),
        ("str(P), str(Q) (5 random loops, len 40000)",
         bench_render, [lift_chain(random_loop(rng, 40000)) for _ in range(5)]),
        # a search that hits early still folds g first
        ("search hit |a| = 2 (5 x len 40000, bound 5)",
         bench_search, [(square_pair(rng, 2, 40000), 5) for _ in range(5)]),
        ("factor reports (all 2601 loop words, len <= 10)",
         bench_factor_reports, loop_chains(10)),
        ("check --format json text (600 loops, len 12-40)",
         bench_report_json, [analyze(w, bound=4) for w in short_loops(rng, 600, 12, 40)]),
        ("chain --format json --trace (3 random loops, len 40000)",
         bench_cli, [["chain", "--format", "json", "--trace", str(random_loop(rng, 40000))]
                     for _ in range(3)]),
        ("ladder --format json --depth 200 [x^1000,y^1000]",
         bench_cli, [["ladder", "--format", "json", "--depth", "200", "[x^1000,y^1000]"]]),
        # these pass every parity test and H, then hit in the search
        ("analyze bound 2 (5 x a^2 b^2, len 40000)",
         bench_analyze, [Word(square_pair(rng, 2, 40000)) for _ in range(5)]),
        # drawn last, so that they change none of the words drawn above; the
        # square test peels the 15,000-letter h, or the conjugator of the
        # shape of the long workload's even cores
        ("square_root conjugated (5 x len 40000, prefix 15000)",
         bench_square_root, [conjugated_square(rng, 40000, 15000) for _ in range(5)]),
        ("search miss conjugated core (5 x len 40000, bound 2)",
         bench_search, [(conjugated_commutator(rng, 40000, 2).codes, 2) for _ in range(5)]),
    ]


def run(repeats, json_path=None):
    workloads = make_workloads(random.Random(20260809))
    width = max(len(name) for name, _, _ in workloads)
    header = f"{'benchmark':<{width}}  {'time':>12}"
    print(header)
    print("-" * len(header))
    rows = []
    for name, fn, data in workloads:
        best = min(_timed(fn, data) for _ in range(repeats))
        print(f"{name:<{width}}  {best * 1000:>10.1f}ms")
        rows.append({"name": name, "best_ms": round(best * 1000, 3)})
    if json_path is not None:
        record = {"python": platform.python_version(), "backend": kernel.BACKEND,
                  "repeats": repeats, "rows": rows}
        with open(json_path, "w") as out:
            json.dump(record, out, indent=2)
            out.write("\n")


def _timed(fn, data):
    start = time.perf_counter()
    fn(data)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of this many runs (default 3)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the rows, repeats, Python version and backend to PATH")
    args = parser.parse_args()
    run(args.repeats, args.json)


if __name__ == "__main__":
    main()
