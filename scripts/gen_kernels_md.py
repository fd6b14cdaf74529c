#!/usr/bin/env python3
"""Generate docs/KERNELS.md from the machine-readable registry dump.

Usage:
    ./build/nobl list --json | python3 scripts/gen_kernels_md.py -o docs/KERNELS.md
    ./build/nobl list --json | python3 scripts/gen_kernels_md.py --check docs/KERNELS.md

The registry (src/core/registry.cpp) is the single source of truth for the
kernel catalog; this script renders `nobl list --json` (see
write_registry_json in src/cli/campaign.cpp) into the committed markdown.
`--check` exits 1 when the committed file drifts from the registry — the CI
docs job runs exactly that, so editing docs/KERNELS.md by hand (or adding a
kernel without regenerating) fails fast.
"""

import argparse
import difflib
import json
import sys

HEADER = """\
# Kernel catalog

<!-- GENERATED FILE — DO NOT EDIT.
     Regenerate with:  ./build/nobl list --json | python3 scripts/gen_kernels_md.py -o docs/KERNELS.md
     CI regenerates and diffs this file; hand edits will fail the docs job. -->

Every kernel is one *program* (a template over the `VpContext` concept,
see [ARCHITECTURE.md](ARCHITECTURE.md)) registered in the `AlgoRegistry`
(`src/core/registry.hpp`). Registration is what makes a kernel visible to
`nobl list|run|certify|trace|check`, the campaign formats, the benches,
and the conformance tests. This catalog is rendered from
`nobl list --json`.
"""


def analytic_dispatch(algo):
    """How the analytic backend answers an H query for this kernel."""
    if algo["exact_h"]:
        return "closed-form synthesis"
    return "cost interpreter"


def sizes(values):
    return ", ".join(str(v) for v in values)


def obliviousness(algo):
    """The registry's static annotation, verified by `nobl audit`."""
    return "oblivious" if algo["input_independent"] else "data-dependent"


def render(doc):
    algos = doc["algorithms"]
    out = [HEADER]
    out.append("## Catalog ({} kernels, registry schema v{})\n".format(
        len(algos), doc["schema_version"]))
    out.append("| name | source | communication pattern | predicted H(n, p, σ) | obliviousness |")
    out.append("| --- | --- | --- | --- | --- |")
    for a in algos:
        out.append("| `{name}` | {source} | {pattern} | {formula} | {obl} |".format(
            obl=obliviousness(a), **a))
    out.append("")
    out.append("`exact` means the predicted formula is the measured H at every fold")
    out.append("and σ, not an asymptotic bound; those kernels carry closed-form trace")
    out.append("synthesizers and are the calibration rows of the backend sweeps.")
    out.append("")
    out.append("The *obliviousness* column is the registry's `input_independent`")
    out.append("annotation — `oblivious` kernels have a communication pattern that is")
    out.append("a static function of n alone. The annotation is not taken on faith:")
    out.append("`nobl audit` re-derives it statically by taint-classifying every")
    out.append("kernel's program (see [AUDIT.md](AUDIT.md)) and CI fails on any")
    out.append("disagreement.")
    out.append("")
    out.append("## Admissibility and backend dispatch\n")
    out.append("| name | defined in | admissible n | exact H | analytic dispatch | smoke sizes |")
    out.append("| --- | --- | --- | --- | --- | --- |")
    for a in algos:
        out.append(
            "| `{}` | `{}` | {} | {} | {} | {} |".format(
                a["name"], a["header"], a["size_rule"],
                "yes" if a["exact_h"] else "no", analytic_dispatch(a),
                sizes(a["smoke_sizes"])))
    out.append("")
    out.append("All kernels run under all {} backends (`{}`); the *analytic*".format(
        len(algos[0]["backends"]), ", ".join(algos[0]["backends"])))
    out.append("dispatch column says which of its two paths answers the query: closed")
    out.append("form, else the cost interpreter (see [ARCHITECTURE.md](ARCHITECTURE.md)")
    out.append("and `src/core/analytic.hpp`).")
    out.append("")
    out.append("## Builtin campaigns\n")
    for name in doc["campaigns"]:
        out.append("- `{}`".format(name))
    out.append("")
    out.append("Campaign spec grammar, result-document schema and trace CSV columns")
    out.append("are documented in [SCHEMAS.md](SCHEMAS.md).")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", help="write the rendered markdown here")
    parser.add_argument(
        "--check", metavar="FILE",
        help="compare FILE against the rendered markdown; exit 1 on drift")
    args = parser.parse_args()

    rendered = render(json.load(sys.stdin))
    if args.check:
        with open(args.check, encoding="utf-8") as f:
            committed = f.read()
        if committed != rendered:
            diff = difflib.unified_diff(
                committed.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile="{} (committed)".format(args.check),
                tofile="{} (regenerated)".format(args.check))
            sys.stderr.writelines(diff)
            sys.stderr.write(
                "{} is stale: regenerate with\n"
                "  ./build/nobl list --json | python3 scripts/gen_kernels_md.py"
                " -o {}\n".format(args.check, args.check))
            return 1
        print("{}: up to date".format(args.check))
        return 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
