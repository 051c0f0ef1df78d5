"""Seeded inputs, reference answers and metric arithmetic of the benchmark.

run.py drives a run; selfcheck.py tests the pieces here on fixed samples.
Everything in this module is deterministic in its arguments.
"""

import json
import math
import random

WORKLOADS = ("paper_scale", "case_studies", "serve_mix")
# The workloads BENCHMARK.json lists. paper_scale stays runnable but is not
# gated: its memory-bound kernels run on a 233 MiB working set, next to the
# size of a last-level cache other tenants share, and on a shared host its
# time moved by 40% between runs minutes apart (SpMV 51 to 125 steps/s) —
# more than the largest bound a gated metric may have.
GATED_WORKLOADS = ("case_studies", "serve_mix")

# Relative tolerance of a reference comparison, as autosec-verify uses it:
# |a - b| / max(1, |a|, |b|) <= TOLERANCE.
TOLERANCE = 1e-8

# ------------------------------------------------------------------ inputs

# The ROADMAP's paper-scale model: gen-fleet --ecus 10 (written as
# fleet10.arch by the runner's set-up), one integrity analysis at nmax 2.
PAPER_SCALE_COMMAND = ["analyze", "fleet10.arch", "--nmax", "2", "--category", "integrity"]

CASE_ARCHITECTURES = (1, 2, 3)
CASE_PROTECTIONS = ("unencrypted", "cmac128", "aes128")
SWEEP_CONSTANTS = ("phi_3g", "eta_3g_net")
SWEEP_CATEGORIES = ("confidentiality", "integrity")
# The seed draws each sweep's lower end; the upper end is fixed because it
# sets the uniformization rate, and with it most of a sweep's cost.
SWEEP_FROM = (0.5, 1, 2, 5)
SWEEP_TO = 100
SWEEP_POINTS = 5


def _number(value):
    """Render a grid value the way it is written on a command line."""
    return repr(value) if isinstance(value, float) else str(value)


def fig5_commands():
    """Fig. 5: every case-study architecture under every protection."""
    return [["analyze", f"arch{which}_{protection}.arch", "--category", "all", "--nmax", "2"]
            for which in CASE_ARCHITECTURES for protection in CASE_PROTECTIONS]


def sweep_command(which, constant, category, start):
    return ["sweep", f"arch{which}_unencrypted.arch", "--message", "m",
            "--category", category, "--constant", constant,
            "--from", _number(start), "--to", _number(SWEEP_TO),
            "--points", str(SWEEP_POINTS), "--nmax", "2"]


def case_studies_commands(seed):
    """Fig. 5 plus the Fig. 6 sweeps — every architecture, 3G constant and
    category — with each sweep's grid drawn from the seed and the command
    order shuffled by it. The composition is the same for every seed."""
    rng = random.Random(f"case_studies/{seed}")
    commands = fig5_commands()
    for which in CASE_ARCHITECTURES:
        for constant in SWEEP_CONSTANTS:
            for category in SWEEP_CATEGORIES:
                commands.append(sweep_command(which, constant, category,
                                              rng.choice(SWEEP_FROM)))
    rng.shuffle(commands)
    return commands


def case_studies_pool():
    """Every command any seed can draw (the reference set)."""
    commands = fig5_commands()
    for which in CASE_ARCHITECTURES:
        for constant in SWEEP_CONSTANTS:
            for category in SWEEP_CATEGORIES:
                for start in SWEEP_FROM:
                    commands.append(sweep_command(which, constant, category, start))
    return commands


def command_key(argv):
    return " ".join(argv)


def command_lines(commands):
    """commands.tsv: KEY <tab> ARG <tab> ARG ..."""
    return "".join(command_key(argv) + "\t" + "\t".join(argv) + "\n" for argv in commands)


# serve_mix: a bounded request pool. Each entry's identity is finite so the
# sessions and per-override stages the server keeps stay bounded too.
# (architecture, nmax, engine, horizons). The two larger models keep one
# horizon: each new horizon re-solves them for about a second.
ANALYZE_MODELS = (
    ("arch1.arch", 2, None, (0.5, 1, 2)), ("arch1.arch", 3, None, (0.5, 1, 2)),
    ("arch2.arch", 2, None, (0.5, 1, 2)), ("arch2.arch", 3, None, (0.5, 1, 2)),
    ("arch3.arch", 2, None, (0.5, 1, 2)), ("arch3.arch", 3, None, (0.5, 1, 2)),
    ("zonal_ethernet.arch", 2, None, (1,)),
    ("fleet_20ecu.arch", 2, "compact", (1,)),
)
SERVE_SWEEP_ARCHS = ("arch1.arch", "arch2.arch", "arch3.arch")
# Sweeps run at nmax 2: a warm nmax-3 sweep re-solves 16k-state chains per
# point (~0.3 s), and each override key keeps its own stage set, so nmax-3
# sweeps would dominate both the latency tail and the resident memory.
SWEEP_VALUES = (0.5, 1, 2, 5, 10, 20, 52, 100)
MDP_TARGETS = (("telematics_adversary.arch", "brake_cmd"), ("arch2.arch", "m"),
               ("zonal_ethernet.arch", "steer"))
MDP_BOUNDS = (5, 10, 20)
# Diagnose on arch2/arch3 takes seconds per request (its breach-time quantile
# search), which would let a handful of requests dominate every run.
DIAGNOSE_ARCH = "arch1.arch"
DIAGNOSE_CATEGORIES = ("confidentiality", "integrity", "availability")
# Each client's stream is a sequence of blocks with a fixed composition
# (about half analyze), shuffled per block; the seed draws each request's
# parameters and the order. Fixing the composition keeps the mix, and with it
# the run-to-run spread, the same for every seed.
BLOCK = (("analyze", 11), ("sweep", 3), ("check", 3), ("diagnose", 2), ("status", 1))
CLIENTS = 4
# Blocks per client in one serve episode (a fresh server answering every
# client's stream once); a run repeats episodes until its time is up.
BLOCKS_PER_CLIENT = 12


def analyze_request(arch, nmax, engine, horizon):
    request = {"op": "analyze", "architecture": arch, "nmax": nmax, "horizon_years": horizon}
    if engine:
        request["engine"] = engine
    return request


def sweep_request(arch, category, constant, values):
    return {"op": "sweep", "architecture": arch, "message": "m", "category": category,
            "constant": constant, "nmax": 2, "values": list(values)}


def check_request(arch, message, bound):
    return {"op": "check", "architecture": arch, "message": message,
            "category": "integrity", "nmax": 2, "model_type": "mdp", "strategy": True,
            "properties": [f'Pmax=? [ F<={bound} "violated" ]']}


def diagnose_request(arch, category):
    return {"op": "diagnose", "architecture": arch, "message": "m", "category": category,
            "nmax": 2}


def draw_block(rng, client):
    """One block of client `client`'s requests: the BLOCK composition, sweeps
    and checks spread over their architectures, parameters drawn from the
    seed. Each analyze model belongs to one client, so no two clients ask for
    the same new analyze answer at once (each would compute it)."""
    models = ANALYZE_MODELS[client % CLIENTS::CLIENTS]
    block = []
    for op, count in BLOCK:
        for slot in range(count):
            if op == "analyze":
                arch, nmax, engine, horizons = rng.choice(models)
                block.append(analyze_request(arch, nmax, engine, rng.choice(horizons)))
            elif op == "sweep":
                values = sorted(rng.sample(SWEEP_VALUES, SWEEP_POINTS))
                block.append(sweep_request(SERVE_SWEEP_ARCHS[slot % len(SERVE_SWEEP_ARCHS)],
                                           rng.choice(SWEEP_CATEGORIES),
                                           rng.choice(SWEEP_CONSTANTS), values))
            elif op == "check":
                arch, message = MDP_TARGETS[slot % len(MDP_TARGETS)]
                block.append(check_request(arch, message, rng.choice(MDP_BOUNDS)))
            elif op == "diagnose":
                block.append(diagnose_request(DIAGNOSE_ARCH, rng.choice(DIAGNOSE_CATEGORIES)))
            else:
                block.append({"op": "status"})
    rng.shuffle(block)
    return block


def serve_streams(seed, clients=CLIENTS, blocks=BLOCKS_PER_CLIENT):
    """One seeded request stream per closed-loop client."""
    rng = random.Random(f"serve_mix/{seed}")
    streams = []
    for client in range(clients):
        stream = []
        for _ in range(blocks):
            stream += draw_block(rng, client)
        streams.append(stream)
    return streams


def serve_pool():
    """Every request identity any seed can draw; sweeps carry the whole value
    pool, so each point any sweep can ask for is answered once."""
    requests = [analyze_request(arch, nmax, engine, horizon)
                for arch, nmax, engine, horizons in ANALYZE_MODELS for horizon in horizons]
    requests += [sweep_request(arch, category, constant, SWEEP_VALUES)
                 for arch in SERVE_SWEEP_ARCHS for category in SWEEP_CATEGORIES
                 for constant in SWEEP_CONSTANTS]
    requests += [check_request(arch, message, bound)
                 for arch, message in MDP_TARGETS for bound in MDP_BOUNDS]
    requests += [diagnose_request(DIAGNOSE_ARCH, category) for category in DIAGNOSE_CATEGORIES]
    requests.append({"op": "status"})
    return requests


def request_key(request):
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def stream_lines(stream, client):
    """client<i>.tsv: KEY <tab> REQUEST-JSON, the request carrying its id."""
    lines = []
    for index, request in enumerate(stream):
        line = json.dumps({"id": f"c{client}-{index}", **request}, separators=(", ", ": "))
        lines.append(request_key(request) + "\t" + line + "\n")
    return "".join(lines)


def input_files(workload, seed):
    """{file name: text} of one run's generated inputs."""
    if workload == "paper_scale":
        return {"commands.tsv": command_lines([PAPER_SCALE_COMMAND])}
    if workload == "case_studies":
        return {"commands.tsv": command_lines(case_studies_commands(seed))}
    return {f"client{c}.tsv": stream_lines(stream, c)
            for c, stream in enumerate(serve_streams(seed))}


def pool_files(workload):
    """Inputs that cover the workload's whole pool once (reference recording)."""
    if workload == "paper_scale":
        return {"commands.tsv": command_lines([PAPER_SCALE_COMMAND])}
    if workload == "case_studies":
        return {"commands.tsv": command_lines(case_studies_pool())}
    return {"client0.tsv": stream_lines(serve_pool(), 0)}


# ------------------------------------------------------------------ answers

def flatten_serve(request, result):
    """Reference entries of one serve result: full-precision doubles keyed by
    the question they answer, independent of how the request grouped them."""
    op = request["op"]
    arch = request.get("architecture")
    nmax = request.get("nmax", 1)
    horizon = request.get("horizon_years", 1)
    entries = {}
    if op == "analyze":
        prefix = f"analyze|{arch}|nmax={nmax}|h={horizon}|engine={request.get('engine')}"
        for row in result["results"]:
            for field in ("exploitable_fraction", "breach_probability",
                          "steady_state_fraction", "mean_time_to_breach"):
                entries[f"{prefix}|{row['message']}|{row['category']}|{field}"] = row[field]
    elif op == "sweep":
        prefix = (f"sweep|{arch}|{request['message']}|{request['category']}|"
                  f"{request['constant']}|nmax={nmax}|h={horizon}")
        for point in result["points"]:
            entries[f"{prefix}|v={point['value']!r}"] = point["exploitable_fraction"]
    elif op == "check":
        prefix = f"check|{arch}|{request['message']}|{request['category']}|nmax={nmax}"
        for row in result["properties"]:
            entries[f"{prefix}|{row['property']}|value"] = row["value"]
            strategy = row.get("strategy") or {}
            for field in ("value", "induced_value"):
                entries[f"{prefix}|{row['property']}|strategy.{field}"] = strategy.get(field)
    elif op == "diagnose":
        prefix = f"diagnose|{arch}|{request['message']}|{request['category']}|nmax={nmax}"
        for row in result["criticality"]:
            entries[f"{prefix}|elasticity|{row['constant']}"] = row["elasticity"]
        breach = result["first_breach"]
        entries[f"{prefix}|total_breach_probability"] = breach["total_breach_probability"]
        for row in breach["attributions"]:
            entries[f"{prefix}|attribution|{row['component']}"] = row["probability"]
        for row in result["breach_time_quantiles"]:
            entries[f"{prefix}|quantile|{row['quantile']!r}"] = row["years"]
    # status reports live server state: nothing to compare.
    return entries


def flatten_answer(workload, key, text):
    """Reference entries of one answer the runner reported.

    lib|... answers are full-precision doubles of the traced library path;
    serve answers are result objects; CLI answers are rendered tables."""
    if key.startswith("lib|"):
        return {key: None if text == "null" else float(text)}
    if workload == "serve_mix":
        return flatten_serve(json.loads(key), json.loads(text))
    return {key: text}


def close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) / max(1.0, abs(a), abs(b)) <= TOLERANCE


def _token_number(token):
    try:
        return float(token.rstrip("%"))
    except ValueError:
        return None


def same_answer(expected, actual):
    """Numbers within TOLERANCE; rendered text token by token, numeric tokens
    within TOLERANCE and every other token exactly."""
    if isinstance(expected, str) or isinstance(actual, str):
        if not (isinstance(expected, str) and isinstance(actual, str)):
            return False
        left, right = expected.split(), actual.split()
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if a == b:
                continue
            x, y = _token_number(a), _token_number(b)
            if x is None or y is None or not close(x, y):
                return False
        return True
    return close(expected, actual)


def check_answers(workload, answers, references):
    """Indices of answers that are errors or disagree with the references,
    with one line of explanation each."""
    bad = {}
    for index, (key, text) in enumerate(answers):
        if text.startswith("error: "):
            bad[index] = text[:300]
            continue
        try:
            entries = flatten_answer(workload, key, text)
        except (ValueError, KeyError, TypeError) as error:
            bad[index] = f"unreadable answer for {key}: {error}"
            continue
        for entry_key, value in entries.items():
            if entry_key not in references:
                bad[index] = f"no reference for {entry_key}"
                break
            if not same_answer(references[entry_key], value):
                bad[index] = (f"{entry_key}: expected {references[entry_key]!r}, "
                              f"got {value!r}")
                break
    return bad


# ------------------------------------------------------------------ metrics

def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def failed_fraction(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


def cache_class(cache):
    """Latency bucket of a serve op from its envelope's "disk/session" fields."""
    disk, _, session = cache.partition("/")
    if disk == "hit":
        return "disk_hit"
    if session == "hit":
        return "session_hit"
    if session == "miss":
        return "miss"
    return "none"
