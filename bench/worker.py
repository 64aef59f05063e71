"""One pass of one workload, in a fresh process.

Run by ``run.py`` as ``python3 bench/worker.py CONFIG_JSON``; prints one
JSON object on its last stdout line.  A pass sets up (imports simpcrit
from the checkout's ``src``, generates the inputs, writes facet files),
runs the workload's fixed job list with each job timed, runs the untimed
seeded probe jobs, then checks every output.  Probes and checks run with
tracing removed and never count towards a timing.

Times are CPU seconds of this process (``time.process_time``; set-up from
``getrusage``), with wall seconds kept beside them for the record.  The
program is single-threaded and does no waiting, so on an idle core the two
agree; CPU time leaves out the time a shared machine gives to others.
While the timed jobs run, ``speed.Sampler`` samples the machine's speed;
its own CPU time is taken out of every job's CPU time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# Each workload at full size and at the tiny size the self-test uses.
# LM inputs are (name, n, p, LM seed); a seed of None means --seed.  The
# timed fixtures are fixed LM instances: SNF cost swings by 2x between LM
# samples of one size, and even between relabelings of one sample, so
# seeding them would make run-to-run spread a property of the seed.  The
# seed instead drives the small "probe" inputs, which reach both answers
# of the hypothesis checks, and the whole flows query mix.  Probes run
# untimed after the timed jobs, so they come last in each list.
SIZES = {
    "full": {
        "census": (6, 2),
        "torsion": [("lm20", 20, 0.2, 1), ("lm25", 25, 0.15, 1), ("probe", 12, 0.25, None)],
        "spectra": [("lm16", 16, 0.4, 1), ("probe", 10, 0.45, None)],
        "flows": {"lm": (12, 0.5, 1), "cycle": 32, "cycle_chips": 16, "rounds": 20},
    },
    "smoke": {
        "census": (5, 2),
        "torsion": [("lm8", 8, 0.3, 1), ("probe", 9, 0.3, None)],
        "spectra": [("lm7", 7, 0.5, 1), ("probe", 7, 0.4, None)],
        "flows": {"lm": (7, 0.6, 1), "cycle": 6, "cycle_chips": 4, "rounds": 2},
    },
}
# Count of 2-trees of simplex_skeleton(6, 2); Kalai gives only tau.
CENSUS_COUNT = {(6, 2): 46620}
# Digests of every job's output on the default seed at full size.
GOLDEN = Path(__file__).resolve().with_name("golden.json")
DEFAULT_SEED = 1


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Timed jobs of one pass plus the failures their checks found."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.size = SIZES[cfg["size"]]
        self.workdir = ROOT / ".bench" / cfg["workload"]
        self.jobs = []  # {"name", "latency_s", "wall_latency_s", "failure", "timed"}
        self.timed = True  # false while the untimed probe jobs run
        self.sampler = speed.Sampler()
        self.digests = {}
        self.inputs = []

    def start(self):
        """CPU time, wall time, sampling time and sample count at the start of a job."""
        return (time.process_time(), time.perf_counter(), self.sampler.spent_s,
                len(self.sampler.samples))

    def record(self, name, start, failure):
        """Append a job begun at ``start``; its CPU time leaves out the
        time spent sampling, its wall time (kept for the record) does not."""
        c0, w0, s0, i0 = start
        self.jobs.append({
            "name": name,
            "latency_s": time.process_time() - c0 - (self.sampler.spent_s - s0),
            "wall_latency_s": time.perf_counter() - w0,
            "samples": [i0, len(self.sampler.samples)],
            "failure": failure,
            "timed": self.timed,
        })

    def fail(self, idx, why):
        if self.jobs[idx]["failure"] is None:
            self.jobs[idx]["failure"] = why

    # -- CLI jobs -----------------------------------------------------------

    def cli(self, name, argv):
        """Run ``simpcrit.cli.main`` in-process; returns (exit code, report)."""
        import simpcrit.cli

        buf = io.StringIO()
        failure = None
        code = None
        start = self.start()
        try:
            with contextlib.redirect_stdout(buf):
                code = simpcrit.cli.main(argv)
        except Exception as exc:  # a job that raises is a failed job
            failure = f"raised {exc!r}"
        self.record(name, start, failure)
        text = buf.getvalue()
        self.digests[name] = _digest(f"{code}\n{text}")
        try:
            report = json.loads(text) if failure is None else None
        except ValueError:
            report = None
            self.fail(len(self.jobs) - 1, "output is not JSON")
        return code, report


# -- census -------------------------------------------------------------------


def setup_census(p):
    n, k = p.size["census"]
    argv = ["--gen", f"simplex-skeleton {n} {k}", "trees", "--dim", str(k), "--census", "--json"]
    return [lambda: p.cli("census", argv)], []


def check_census(p, results):
    from math import comb

    n, k = p.size["census"]
    code, rep = results[0]
    if rep is None:
        return p.fail(0, p.jobs[0]["failure"] or "no report")
    r = rep["result"]
    hist = {int(t): c for t, c in r["torsion_histogram"].items()}
    want_tau = n ** comb(n - 2, k)  # Kalai's formula
    if code != 0 or not r["complete"]:
        p.fail(0, f"exit {code}, complete={r['complete']}")
    if int(r["tau"]) != want_tau or sum(t * t * c for t, c in hist.items()) != want_tau:
        p.fail(0, f"tau {r['tau']} != {want_tau}")
    if r["count"] != sum(hist.values()) or r["count"] != CENSUS_COUNT.get((n, k), r["count"]):
        p.fail(0, f"count {r['count']}")
    p.inputs.append({"name": f"simplex-skeleton {n} {k}", "f_vector": rep["input"]["f_vector"]})


# -- torsion ------------------------------------------------------------------


def lm_input(p, name, n, prob, seed):
    """Generate an LM input and write its facet file; returns its
    description, facets and the path the CLI is given."""
    seed = p.cfg["seed"] if seed is None else seed
    facets = inputs.linial_meshulam(n, prob, seed)
    path = p.workdir / f"{name}.txt"
    label = f"{name} = LM({n}, {prob}, {seed})"
    inputs.write_facets(path, facets, label)
    return {"label": label, "n": n, "facets": facets, "path": str(path.relative_to(ROOT))}


def setup_torsion(p):
    timed, probes = [], []
    p.lm = [lm_input(p, *spec) for spec in p.size["torsion"]]
    for spec, lm in zip(p.size["torsion"], p.lm):
        name, base = spec[0], ["--facets", lm["path"], "--json"]
        (probes if spec[3] is None else timed).extend([
            lambda b=base, m=name: p.cli(f"{m}.info", b + ["info"]),
            lambda b=base, m=name: p.cli(f"{m}.critical-group", b + ["critical-group", "--dim", "1"]),
            lambda b=base, m=name: p.cli(
                f"{m}.main-thm", b + ["verify", "main-thm", "--dim", "1", "--trees", "1"]
            ),
        ])
    return timed, probes


def check_torsion(p, results):
    for k, lm in enumerate(p.lm):
        i_info, i_cg, i_mt = 3 * k, 3 * k + 1, 3 * k + 2
        (c_info, info), (c_cg, cg), (c_mt, mt) = results[3 * k:3 * k + 3]
        for idx, code, rep in ((i_info, c_info, info), (i_cg, c_cg, cg), (i_mt, c_mt, mt)):
            if rep is None or code != 0:
                p.fail(idx, p.jobs[idx]["failure"] or f"exit {code}")
        if info is not None:
            if tuple(info["result"]["f_vector"]) != inputs.lm_f_vector(lm["n"], lm["facets"]):
                p.fail(i_info, "f-vector differs from the generator's count")
            hom = info["result"]["homology"]
            p.inputs.append({
                "name": lm["label"],
                "f_vector": info["result"]["f_vector"],
                "reduced_homology": {i: _group(h["betti"], h["torsion"]) for i, h in hom.items()},
            })
        if mt is not None and mt["result"]["verdict"] != "PASS":
            p.fail(i_mt, "main-thm verdict is not PASS")
        if cg is not None and mt is not None:
            same = (
                cg["result"]["invariant_factors"] == mt["result"]["direct_factors"]
                and cg["result"]["free_rank"] == mt["result"]["direct_free_rank"]
            )
            if not same:
                p.fail(i_cg, "critical-group factors differ from the direct route")


def _group(betti, torsion):
    parts = ([f"Z^{betti}"] if betti else []) + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) or "0"


def _homology(comp):
    groups = (comp.reduced_homology(i) for i in range(-1, comp.dim + 1))
    return {str(i): _group(g.betti, g.torsion) for i, g in enumerate(groups, -1)}


# -- spectra ------------------------------------------------------------------


def setup_spectra(p):
    timed, probes = [], []
    p.lm = [lm_input(p, *spec) for spec in p.size["spectra"]]
    for spec, lm in zip(p.size["spectra"], p.lm):
        argv = ["--facets", lm["path"], "--json", "verify", "alt-product", "--dim", "1"]
        (probes if spec[3] is None else timed).append(
            lambda a=argv, m=spec[0]: p.cli(f"{m}.alt-product", a)
        )
    return timed, probes


def check_spectra(p, results):
    """The verdict is PASS exactly when H_1 is finite; then |K_1|, the
    alternating product and det of a reduced Laplacian all agree."""
    from fractions import Fraction

    from simpcrit import SimplicialComplex, determinant, find_torsion_free_tree, reduced_laplacian

    for idx, (lm, (code, rep)) in enumerate(zip(p.lm, results)):
        comp = SimplicialComplex.from_facets(lm["facets"])
        h1 = comp.reduced_homology(1)
        p.inputs.append({"name": lm["label"], "f_vector": list(comp.f_vector()),
                         "reduced_homology": _homology(comp)})
        if rep is None:
            p.fail(idx, p.jobs[idx]["failure"] or "no report")
            continue
        verdict = rep["result"]["verdict"]
        finite = h1.betti == 0
        if (verdict == "PASS") != finite or code != (0 if finite else 5):
            p.fail(idx, f"verdict {verdict} (exit {code}) but H_1 = {h1}")
        elif finite:
            det = abs(determinant(reduced_laplacian(comp, 1, find_torsion_free_tree(comp, 1))))
            alt = Fraction(rep["result"]["alternating_product"])
            if not det == int(rep["result"]["group_order"]) == alt:
                p.fail(idx, f"det {det}, |K_1| {rep['result']['group_order']}, alt {alt}")


# -- flows --------------------------------------------------------------------


def setup_flows(p):
    from simpcrit import ChipState, SimplicialComplex, cycle, find_torsion_free_tree
    from simpcrit.cli import load_facet_file

    cfg = p.size["flows"]
    n = cfg["lm"][0]
    lm = lm_input(p, "lm", *cfg["lm"])
    X = SimplicialComplex.from_facets(load_facet_file(ROOT / lm["path"]))
    G = X.skeleton(1)
    C = cycle(cfg["cycle"])
    T = find_torsion_free_tree(X, 1)
    edges = list(X.faces(1))
    deg = n - 1
    p.flow = {"X": X, "G": G, "C": C, "T": T, "edges": edges, "lm": lm}
    rng = random.Random(f"flows:{p.cfg['seed']}")
    p.rounds = []
    for _ in range(cfg["rounds"]):
        a = ChipState(G, 1, tuple(rng.randint(0, 2 * deg) for _ in range(n - 1)))
        b = ChipState(G, 1, tuple(rng.randint(0, 2 * deg) for _ in range(n - 1)))
        p.rounds.append({
            "x": [rng.randint(-3, 3) for _ in edges],
            "face": rng.choice(edges),
            "theta": [rng.randint(-3, 3) for _ in range(len(edges) - (n - 1))],
            "cycle": ChipState(C, 1, tuple(rng.randint(0, cfg["cycle_chips"]) for _ in range(cfg["cycle"] - 1))),
            "a": a, "b": b, "ab": a + b,
        })
    return [lambda: run_flow_session(p)], []


def run_flow_session(p):
    """The closed loop: one client, each query sent when the last returned."""
    import simpcrit.flows as flows

    X, T = p.flow["X"], p.flow["T"]
    out = []

    def q(fn, *args):
        failure = None
        result = None
        start = p.start()
        try:
            result = getattr(flows, fn)(*args)
        except Exception as exc:  # a query that raises is a failed query
            failure = f"raised {exc!r}"
        p.record(fn, start, failure)
        out.append(result)
        return result

    for r in p.rounds:
        y = q("fire", X, 1, r["x"], r["face"])
        q("equivalent", X, 1, r["x"], y)
        q("to_group_element", X, 1, T, r["x"])
        q("to_group_element", X, 1, T, y)
        q("extend_to_conservative", X, 1, T, r["theta"])
        q("stabilize", r["cycle"])
        q("stabilize", r["a"])
        ra = q("critical_representative", r["a"])
        rb = q("critical_representative", r["b"])
        q("critical_representative", ra + rb if ra is not None and rb is not None else None)
        q("critical_representative", r["ab"])
        q("critical_representative", r["cycle"])
    return out


FLOW_QUERIES_PER_ROUND = 12


def _conservative(edges, values):
    """Boundary of a 1-chain is zero, computed without the library."""
    net = {}
    for (a, b), v in zip(edges, values):
        net[a] = net.get(a, 0) - v
        net[b] = net.get(b, 0) + v
    return not any(net.values())


def _stable_after(state, final, fired):
    """Final chips equal start chips minus the Laplacian of the firing
    vector, and no non-bank vertex can fire; computed without the library."""
    comp = state.complex
    adj = {}
    for a, b in comp.faces(1):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    verts = [v for v in sorted(adj) if v != state.bank]
    for v, start, end in zip(verts, state.chips, final.chips):
        want = start - len(adj[v]) * fired.get(v, 0) + sum(fired.get(w, 0) for w in adj[v])
        if end != want or end >= len(adj[v]):
            return False
    return True


def check_flows(p, results):
    from simpcrit.flows import is_stable

    out = results[0]
    edges = p.flow["edges"]
    tree_faces = set(p.flow["T"].top_faces)
    for k, r in enumerate(p.rounds):
        base = FLOW_QUERIES_PER_ROUND * k
        y, eq, g1, g2, ext, st_c, st_a, ra, rb, lhs, rhs, crit_c = out[base:base + FLOW_QUERIES_PER_ROUND]
        if y is None or not _conservative(edges, [b - a for a, b in zip(r["x"], y)]):
            p.fail(base, "fire changed the boundary")
        if eq is not True:
            p.fail(base + 1, "x is not equivalent to fire(x)")
        if g1 is None or g1 != g2:
            p.fail(base + 3, "to_group_element changed under fire")
        outside = [v for e, v in zip(edges, ext or ()) if e not in tree_faces]
        if ext is None or not _conservative(edges, ext) or outside != r["theta"]:
            p.fail(base + 4, "extension is not a conservative extension of theta")
        for idx, state, res in ((5, r["cycle"], st_c), (6, r["a"], st_a)):
            if res is None or not _stable_after(state, *res):
                p.fail(base + idx, "stabilize result is wrong")
        for idx, rep in ((7, ra), (8, rb), (10, rhs)):
            if rep is None or not is_stable(rep):
                p.fail(base + idx, "representative is not stable")
        if lhs is None or rhs is None or lhs.chips != rhs.chips:
            p.fail(base + 9, "group law fails")
        # the critical states of a cycle with a bank: at most one empty vertex
        if crit_c is None or any(c > 1 for c in crit_c.chips) or crit_c.chips.count(0) > 1:
            p.fail(base + 11, "cycle representative is not critical")
    X = p.flow["X"]
    lm = p.flow["lm"]
    p.inputs.append({
        "name": lm["label"],
        "f_vector": list(inputs.lm_f_vector(lm["n"], lm["facets"])),
        "reduced_homology": _homology(X),
    })
    by_kind = {}
    for job, x in zip(p.jobs, out):
        by_kind.setdefault(job["name"], []).append(_plain(x))
    for kind, values in by_kind.items():
        p.digests[kind] = _digest(_canonical(values))


def _plain(x):
    """JSON-able form of a query result, for the golden digest."""
    from simpcrit.flows import ChipState, GroupElement

    if isinstance(x, GroupElement):
        return {"moduli": x.moduli, "residues": x.residues}
    if isinstance(x, ChipState):
        return list(x.chips)
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], ChipState):
        return [list(x[0].chips), sorted(x[1].items())]
    return x


def check_golden(p):
    golden = json.loads(GOLDEN.read_text()).get(p.cfg["workload"], {})
    for name, digest in p.digests.items():
        if golden.get(name) != digest:
            for idx, job in enumerate(p.jobs):
                if job["name"] == name:
                    p.fail(idx, f"output differs from the golden digest for seed {DEFAULT_SEED}")


WORKLOADS = {
    "census": (setup_census, check_census),
    "torsion": (setup_torsion, check_torsion),
    "spectra": (setup_spectra, check_spectra),
    "flows": (setup_flows, check_flows),
}


def main(cfg):
    src = ROOT / "src"
    if not (src / "simpcrit" / "__init__.py").is_file():
        print(f"error: no simpcrit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import simpcrit
    import simpcrit.cli  # noqa: F401  (the CLI jobs' import is set-up too)

    if not Path(simpcrit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: simpcrit imported from {simpcrit.__file__}, not {src}", file=sys.stderr)
        return 2
    p = Pass(cfg)
    setup, check = WORKLOADS[cfg["workload"]]
    timed, probes = setup(p)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_s = usage.ru_utime + usage.ru_stime
    setup_wall_s = time.monotonic() - cfg["t_spawn"]

    rec = patches = None
    if cfg["trace"]:
        rec = tracing.Recorder()
        patches = tracing.install(rec)
    c0, w0, _, _ = p.start()
    try:
        with p.sampler:
            results = [job() for job in timed]
    finally:
        cpu_s = time.process_time() - c0 - p.sampler.spent_s
        wall_s = time.perf_counter() - w0
        if patches is not None:
            tracing.uninstall(patches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p.timed = False
    results += [job() for job in probes]
    check(p, results)
    if cfg["seed"] == DEFAULT_SEED and cfg["size"] == "full":
        check_golden(p)
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "speed_samples_s": p.sampler.samples,
        "jobs": p.jobs,
        "digests": p.digests,
        "inputs": p.inputs,
        "checked": True,
    }
    if rec is not None:
        out["layers"] = rec.metrics(wall_s)
        rec.dump(p.workdir / "spans.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
