"""Write the claim reports that the claim workloads compare against.

Run from the repository root, after checking that every claim passes:

    python3 benchmarks/make_reference.py

Each file under ``reference/`` holds, per claim, its name, status and value
(the report without the wall-clock ``ms`` field).
"""

from __future__ import annotations

import json

from child import import_hatilt
from workloads import REFERENCE_DIR, WORKLOADS, ClaimsWorkload, reference_path


def main():
    import_hatilt()
    from hatilt.verify import run_claims

    REFERENCE_DIR.mkdir(exist_ok=True)
    for factory in WORKLOADS.values():
        w = factory()
        if not isinstance(w, ClaimsWorkload):
            continue
        results, _, _ = run_claims(w.d, w.n, w.claim_names())
        bad = [r["name"] for r in results if r["status"] != "pass"]
        if bad:
            raise SystemExit(f"claims do not pass at ({w.d}, {w.n}): {bad}")
        report = [{"name": r["name"], "status": r["status"], "value": r["value"]} for r in results]
        path = reference_path(w.d, w.n, w.claims)
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
