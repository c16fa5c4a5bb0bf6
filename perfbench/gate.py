"""Correctness gate: certify every result, compare served with one-shot.

* Every distinct result document is re-certified with
  ``repro.verify.certify_artifact`` (CPD never increases; stress, slot
  and frozen-op invariants hold; the summary re-derives).
* Every served artifact's ``comparable_view`` digest must equal the
  digest of ``run_request`` on the same request.  The one-shot digests
  are computed outside the timed phase in two fresh interpreters and
  kept under the work directory keyed by request and source-tree digest,
  so a fixed request is solved one-shot once per checkout, not once per
  run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time

RUN_PY = pathlib.Path(__file__).with_name("run.py")


def digest(document: dict) -> str:
    """Digest of the wall-clock-free view of a ``flow_result``."""
    from repro.service import comparable_view, content_hash

    return content_hash(comparable_view(document))


def distinct(rows) -> dict[tuple, dict]:
    """Digest the rows' documents after a timed phase; keep distinct ones.

    Pops each row's ``document`` and sets its ``digest``.  A document
    equal to one already digested under the same key takes that digest,
    so repeated hits of one artifact are compared, not hashed again.
    Returns the first document of each distinct ``(key, digest)``.
    """
    seen: dict[str, list[tuple[dict, str]]] = {}
    documents = {}
    for row in rows:
        document = row.pop("document", None)
        if document is None:
            continue
        known = seen.setdefault(row["key"], [])
        for other, value in known:
            if other == document:
                row["digest"] = value
                break
        else:
            row["digest"] = digest(document)
            known.append((document, row["digest"]))
            documents.setdefault((row["key"], row["digest"]), document)
    return documents


def certify(document: dict) -> tuple[bool, float, str]:
    """``(ok, seconds, detail)`` of re-certifying one result."""
    from repro.errors import ReproError
    from repro.verify import certify_artifact

    start = time.perf_counter()
    try:
        report = certify_artifact(document)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return False, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    violations = report.get("certificate", {}).get("violations", [])
    detail = "; ".join(str(v.get("detail", v)) for v in violations[:3])
    return bool(report["ok"]), seconds, detail


def source_digest(root: pathlib.Path) -> str:
    """Digest of the program's source tree (``src/repro/**/*.py``)."""
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


#: Fresh interpreters that compute missing one-shot references.
ONE_SHOT_PROCESSES = 2


def one_shot(batch: pathlib.Path, out_dir: pathlib.Path) -> None:
    """Body of a reference process: run the one-shot pipeline on every
    ``{key: request}`` of ``batch`` and store each digest in ``out_dir``.
    """
    from repro.service import FloorplanRequest, run_request

    for key, request in json.loads(batch.read_text()).items():
        document = run_request(FloorplanRequest.from_dict(request))
        path = out_dir / f"{key}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(
            {"digest": digest(document), "summary": document["summary"]}
        ))
        tmp.replace(path)


class References:
    """One-shot digests per request key, persisted per source tree."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.dir = ctx.work_dir / "reference" / source_digest(ctx.root)[:16]

    def _path(self, key: str) -> pathlib.Path:
        return self.dir / f"{key}.json"

    def resolve(self, requests: dict[str, dict]) -> dict[str, dict]:
        """``{key: {"digest", "summary"}}`` for every key in ``requests``."""
        missing = {
            key: request for key, request in requests.items()
            if not self._path(key).exists()
        }
        if missing:
            self._compute(missing)
        return {
            key: json.loads(self._path(key).read_text()) for key in requests
        }

    def _compute(self, missing: dict[str, dict]) -> None:
        """Solve ``missing`` one-shot in fresh interpreters (no state of
        this process leaks in) and wait for every one to end.

        Plain subprocesses, not a ``spawn`` pool: such a pool starts
        multiprocessing's resource tracker, a process that outlives the
        run that started it.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        items = sorted(missing.items())
        processes = []
        try:
            for index in range(min(ONE_SHOT_PROCESSES, len(items))):
                batch = self.ctx.run_dir / f"one-shot-{index}.json"
                batch.write_text(json.dumps(
                    dict(items[index::ONE_SHOT_PROCESSES])
                ))
                processes.append(subprocess.Popen(
                    [sys.executable, str(RUN_PY), "--one-shot", str(batch),
                     str(self.dir)],
                    cwd=self.ctx.root, env=self.ctx.env,
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                ))
            codes = [process.wait() for process in processes]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        if any(codes):
            raise RuntimeError(f"one-shot reference processes exited {codes}")


def check(ctx, result) -> dict:
    """Gate one run: mark every failing row ``rejected``; return a report.

    ``result["documents"]`` maps each distinct ``(key, digest)`` to one
    document.  Served runs (those with ``expect_hit``) must also match
    the one-shot answer and be all hits or all misses.
    """
    rows, documents = result["rows"], result["documents"]
    bad: dict[tuple, str] = {}
    certify_s = []
    for pair, document in documents.items():
        ok, seconds, detail = certify(document)
        certify_s.append(seconds)
        if not ok:
            bad[pair] = f"certification failed: {detail}"
    served = "expect_hit" in result
    if served:
        requests = {
            row["key"]: row["request"] for row in rows if row["status"] == "done"
        }
        references = References(ctx).resolve(requests)
        for key, digest in documents:
            expected = references[key]["digest"]
            if digest != expected:
                bad.setdefault(
                    (key, digest),
                    f"served {digest[:12]} != one-shot {expected[:12]}",
                )
    rejected = 0
    for row in rows:
        if row["status"] != "done":
            continue
        reason = bad.get((row["key"], row["digest"]))
        if reason is None and served and row["cache_hit"] != result["expect_hit"]:
            reason = f"cache_hit={row['cache_hit']} in serve-" + (
                "hit" if result["expect_hit"] else "miss"
            )
        if reason is not None:
            row["status"], row["error"] = "rejected", reason
            rejected += 1
    return {
        "distinct_artifacts": len(documents),
        "certify_s_median": statistics.median(certify_s) if certify_s else None,
        "compared_one_shot": len(documents) if served else 0,
        "rejected": rejected,
        "violations": sorted(set(bad.values()))[:10],
    }
