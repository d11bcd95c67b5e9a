#!/usr/bin/env python3
"""vguard benchmark runner.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds vguard and the child program (perfbench/vgbench.cpp) under
.bench_build/ in the checkout, sets the workload up, then launches one
fresh child process per operation, one at a time, until --seconds have
passed. Every operation's output is checked. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, '.bench_build', 'perfbench')
WORK_DIR = os.path.join(ROOT, '.bench_build', 'work')
# Pinned output digests, keyed by seed (pin_digests.py writes them).
PINNED = os.path.join(HERE, 'digests.json')
WORKLOADS = ('tab02_cold', 'replay_warm', 'delay_sweep_closed')
# Set-up is repeated and its median reported, so that one slow disk
# flush or scheduler hiccup does not read as a regression.
SETUP_REPEATS = 3
# An operation takes about 2 s; a child still running after this is
# killed and counted as failed.
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up broke)."""


class Child:
    """One finished child process: timings, rusage and parsed output."""

    def __init__(self, t0_ns, t1_ns, rc, rusage, out):
        self.t0_ns = t0_ns
        self.t1_ns = t1_ns
        self.wall_s = (t1_ns - t0_ns) / 1e9
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0  # Linux: KiB
        self.rc = rc
        self.out = out


def build():
    """Bring the child program up to date, configuring first when the
    build tree is missing or its configure never finished."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ['cmake', '-S', HERE, '-B', BUILD_DIR,
                 '-DCMAKE_BUILD_TYPE=RelWithDebInfo']
    compile_ = ['cmake', '--build', BUILD_DIR, '--target', 'vgbench',
                '-j', jobs]

    def ok(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0

    configured = os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt'))
    if not (configured and ok(compile_)):
        if not (ok(configure) and ok(compile_)):
            raise BenchError('building perfbench/vgbench failed')
    return os.path.join(BUILD_DIR, 'vgbench')


def run_child(binary, args):
    """Run the child to completion; wall from spawn to reap, rusage from
    wait4, output parsed from its last stdout line."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith('VGUARD_')}
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        data = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = None
    lines = data.decode(errors='replace').strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            out = json.loads(lines[-1])
        except ValueError:
            out = None
    return Child(t0, t1, proc.returncode, rusage, out)


def check_op(child, ref, pinned, warm_store):
    """Reasons an operation failed; empty when it passed every check."""
    if child.out is None:
        return ['exit code %d or no JSON output' % child.rc]
    out = child.out
    reasons = [name for name, ok in sorted(out['checks'].items()) if not ok]
    for name, digest in sorted(out['digests'].items()):
        if ref is not None and ref.get(name) != digest:
            reasons.append('%s digest differs from the first operation' % name)
        if name in pinned and pinned[name] != digest:
            reasons.append('%s digest differs from the pinned one' % name)
    if warm_store:
        counters = out['counters']
        if counters['trace_cache.captures'] != 0:
            reasons.append('captured %d traces from a warm store'
                           % counters['trace_cache.captures'])
        if counters['store.rejects'] != 0:
            reasons.append('store rejected %d traces'
                           % counters['store.rejects'])
    return reasons


class Bench:
    """One run of one workload: set-up, timed operations, metrics."""

    def __init__(self, binary, workload, seed, pinned):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.work = os.path.join(WORK_DIR, '%s-%d' % (workload, os.getpid()))
        self.store = None
        self.stress = None
        self.ref = None
        self.attempted = 0
        self.failed = 0

    def op_args(self, trace=False):
        args = ['op', self.workload, '--seed', str(self.seed)]
        if self.store:
            args += ['--store', self.store]
        if self.stress:
            args += ['--stress', self.stress]
        if trace:
            args.append('--trace')
        return args

    def op(self, trace=False, filling=False):
        """One checked operation. The first passing one of a run sets the
        reference digests that every later one must reproduce."""
        child = run_child(self.binary, self.op_args(trace))
        warm = self.workload == 'replay_warm' and not filling
        reasons = check_op(child, self.ref, self.pinned, warm)
        self.attempted += 1
        if reasons:
            self.failed += 1
            print('operation failed: ' + '; '.join(reasons), flush=True)
        elif self.ref is None:
            self.ref = dict(child.out['digests'])
        return child

    def setup_once(self):
        """Input generation, the store fill (replay_warm), the stressmark
        calibration (delay_sweep_closed) and one untimed warm-up op."""
        t0 = time.monotonic()
        if self.workload == 'replay_warm':
            # Each set-up fills a fresh store; cleanup() removes them all
            # once the timed operations are over.
            os.makedirs(self.work, exist_ok=True)
            self.store = tempfile.mkdtemp(prefix='store-', dir=self.work)
            # Filling the store is a cold Table 2: its digests are the
            # capture-side bytes the warm replays must reproduce.
            fill = self.op(filling=True)
            if fill.out is None or fill.out['counters'][
                    'trace_cache.captures'] == 0:
                raise BenchError('store fill captured nothing')
        if self.workload == 'delay_sweep_closed':
            cal = run_child(self.binary, ['calibrate'])
            if cal.out is None:
                raise BenchError('stressmark calibration failed')
            self.stress = cal.out['stress']
        self.op()
        return time.monotonic() - t0

    def measure(self, seconds, trace):
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        plain, traced = [], []
        deadline = time.monotonic() + seconds
        while True:
            # The traced run alternates traced and plain operations so
            # tracing overhead is measured under the same conditions.
            use_trace = trace and len(traced) <= len(plain)
            (traced if use_trace else plain).append(self.op(use_trace))
            if time.monotonic() >= deadline and (
                    not trace or (traced and plain)):
                break
        probe = None
        if trace:
            stress = self.stress or next(
                (c.out['stress'] for c in traced if c.out), None)
            if stress:
                probe = run_child(self.binary, [
                    'probe', self.workload, '--seed', str(self.seed),
                    '--stress', stress])
            if probe is None or probe.out is None:
                raise BenchError('layer probe failed')
        return setups, plain, traced, probe

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    if len(s) < 11:
        return None
    i = len(s) - 11
    return 100.0 * (i + 1) / len(s), s[i]


def end_to_end(bench, setups, plain):
    ok = [c for c in plain if c.out is not None]
    walls = [c.wall_s for c in ok]
    t = tail(walls)
    print('%s: %d timed operations, wall_s median %.4f s%s' % (
        bench.workload, len(walls), median(walls),
        ', p%.0f %.4f s' % t if t else ' (too few for a tail percentile)'),
        flush=True)
    return {
        'wall_s': (median(walls), 's'),
        'cpu_s': (median([c.cpu_s for c in ok]), 's'),
        'peak_rss_mb': (median([c.rss_mb for c in ok]), 'MB'),
        'setup_s': (median(setups), 's'),
        'ok_ratio': (1.0 - bench.failed / bench.attempted, 'ratio'),
    }


def accounting(child):
    """Unaccounted share of one traced op's wall, and its largest piece:
    a call outside every span, or a gap between the main thread's calls
    (process start before main(), and output plus exit at the end)."""
    tr = child.out['trace']
    calls = sorted(tr['calls'], key=lambda c: c['start_ns'])
    wall = child.t1_ns - child.t0_ns
    covered = sum(c['end_ns'] - c['start_ns'] for c in calls if c['layer'])
    pieces = [(c['end_ns'] - c['start_ns'], c['name'])
              for c in calls if not c['layer']]
    prev_end, prev_name = child.t0_ns, 'process start'
    for c in calls:
        pieces.append((c['start_ns'] - prev_end,
                       'gap before %s (after %s)' % (c['name'], prev_name)))
        prev_end, prev_name = c['end_ns'], c['name']
    pieces.append((child.t1_ns - prev_end,
                   'output and process exit (after %s)' % prev_name))
    largest = max(pieces)
    return 100.0 * (wall - covered) / wall, 100.0 * largest[0] / wall, \
        largest[1]


def layer_metrics(child):
    """Per-layer metrics of one traced operation."""
    tr = child.out['trace']
    cnt = child.out['counters']
    L = tr['layers']

    def ns_per(seconds, units):
        return 1e9 * seconds / units if units else 0.0

    m = {
        'workloads.calibrate_s': (L['workloads.calibrate']['s'], 's'),
        'workloads.calibrate_calls':
            (L['workloads.calibrate']['calls'], 'count'),
        'experiments.reference_s': (L['experiments.reference']['s'], 's'),
        'solver.solve_s': (L['solver']['s'], 's'),
        'solver.solves': (cnt['solver.solves'], 'count'),
        'campaign.s': (L['campaign']['s'], 's'),
        'campaign.runs': (tr['campaign_runs'], 'count'),
        'campaign.parallel_eff': (
            tr['campaign_cpu_s'] / (tr['threads'] * L['campaign']['s'])
            if L['campaign']['s'] else 0.0, 'ratio'),
        'replay_sweep.s': (L['replay_sweep']['s'], 's'),
        'replay_sweep.ns_per_lane_cycle': (
            ns_per(L['replay_sweep']['s'], tr['sweep_lane_cycles']), 'ns'),
        'multicore.s': (L['multicore']['s'], 's'),
        'multicore.ns_per_core_cycle': (
            ns_per(L['multicore']['s'], tr['chip_core_cycles']), 'ns'),
        'trace_cache.captures': (cnt['trace_cache.captures'], 'count'),
        'trace_cache.hits': (cnt['trace_cache.hits'], 'count'),
        'trace_cache.hit_ratio': (
            cnt['trace_cache.hits'] / (cnt['trace_cache.hits'] +
                                       cnt['trace_cache.misses'])
            if cnt['trace_cache.hits'] + cnt['trace_cache.misses'] else 0.0,
            'ratio'),
        'trace_cache.mb': (cnt['trace_cache.bytes'] / 2**20, 'MB'),
        'store.load_s': (L['store.load']['s'], 's'),
        'store.hits': (cnt['store.hits'], 'count'),
        'store.misses': (cnt['store.misses'], 'count'),
        'store.rejects': (cnt['store.rejects'], 'count'),
        'store.mapped_mb': (cnt['store.mapped_bytes'] / 2**20, 'MB'),
    }
    for kind in ('capture', 'replay', 'closed_loop'):
        m[kind + '.s'] = (L[kind]['s'], 's')
        m[kind + '.cycles'] = (L[kind]['units'], 'count')
        m[kind + '.ns_per_cycle'] = (ns_per(L[kind]['s'], L[kind]['units']),
                                     'ns')
    unaccounted, largest, _ = accounting(child)
    m['unaccounted_pct'] = (unaccounted, '%')
    m['unaccounted.largest_pct'] = (largest, '%')
    return m


def per_layer(bench, plain, traced, probe):
    ok = [c for c in traced if c.out is not None]
    if not ok:
        raise BenchError('no traced operation produced output')
    per_op = [layer_metrics(c) for c in ok]
    metrics = {name: (median([m[name][0] for m in per_op]), unit)
               for name, (_, unit) in per_op[0].items()}
    for name in ('cpu.cycle_ns', 'power.current_ns', 'pdn.step_ns',
                 'pdn.lane_step_ns'):
        metrics[name] = (probe.out[name], 'ns')
    traced_wall = median([c.wall_s for c in ok])
    plain_wall = median([c.wall_s for c in plain if c.out is not None])
    metrics['trace.overhead_pct'] = (
        100.0 * (traced_wall - plain_wall) / plain_wall if plain_wall
        else 0.0, '%')
    metrics['fail_ratio'] = (bench.failed / bench.attempted, 'ratio')
    # Name the largest unaccounted piece of the median traced op.
    by_wall = sorted(ok, key=lambda c: c.wall_s)
    _, share, name = accounting(by_wall[len(by_wall) // 2])
    print('%s: unaccounted %.2f%% of op wall; largest piece %.2f%%: %s' % (
        bench.workload, metrics['unaccounted_pct'][0], share, name),
        flush=True)
    return metrics


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', required=True, type=int)
    ap.add_argument('--seconds', required=True, type=float)
    ap.add_argument('--trace', required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error('--seed must be non-negative')

    try:
        binary = build()
        with open(PINNED) as f:
            pinned = json.load(f).get(str(args.seed), {})
        bench = Bench(binary, args.workload, args.seed, pinned)
        try:
            setups, plain, traced, probe = bench.measure(args.seconds,
                                                         args.trace == 1)
        finally:
            bench.cleanup()
        if args.trace:
            metrics = per_layer(bench, plain, traced, probe)
        else:
            metrics = end_to_end(bench, setups, plain)
    except (BenchError, OSError) as e:
        print('perfbench: %s' % e, file=sys.stderr)
        return 1
    result = {
        'correct': bench.failed == 0,
        'attempted': bench.attempted,
        'failed': bench.failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
