#!/usr/bin/env python3
"""Self-test of the vguard benchmark.

Runs every workload at a one-second budget on a seed no other run uses,
and checks that the operations agree (run.py compares every operation's
digests with the first one's), that a wrong pinned digest is counted in
the failures, and that a traced run of every workload passes its checks,
reports every per-layer metric that BENCHMARK.json names and shows work
in the layers the workload exists for. Takes about three minutes:

  python3 perfbench/test_bench.py
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import run

SEED = 91731


def bench(workload, trace=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(['--workload', workload, '--seed', str(SEED),
                       '--seconds', '1', '--trace', str(trace)])
    assert rc == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def spec():
    with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


class BenchTest(unittest.TestCase):
    def test_operations_agree_on_every_workload(self):
        for w in spec()['workloads']:
            with self.subTest(workload=w['name']):
                r = bench(w['name'])
                # Set-up's warm-up op plus at least one timed op.
                self.assertGreaterEqual(r['attempted'], 2)
                self.assertEqual(r['failed'], 0)
                self.assertTrue(r['correct'])
                self.assertEqual(
                    set(r['metrics']),
                    {m['name'] for m in spec()['end_to_end']})
                self.assertEqual(r['metrics']['ok_ratio']['value'], 1.0)

    def test_wrong_digest_counts_as_failure(self):
        scratch = os.path.join(run.ROOT, '.bench_build')
        os.makedirs(scratch, exist_ok=True)
        with tempfile.NamedTemporaryFile('w', suffix='.json',
                                         dir=scratch) as f:
            json.dump({str(SEED): {'tab02': '0' * 16}}, f)
            f.flush()
            self.addCleanup(setattr, run, 'PINNED', run.PINNED)
            run.PINNED = f.name
            r = bench('tab02_cold')
        self.assertFalse(r['correct'])
        self.assertGreaterEqual(r['attempted'], 2)
        self.assertEqual(r['failed'], r['attempted'])
        self.assertEqual(r['metrics']['ok_ratio']['value'], 0.0)

    def test_traced_run_reports_every_layer_metric(self):
        # The layers each workload exists for must show work.
        busy = {
            'tab02_cold': ('capture.cycles', 'replay_sweep.s'),
            'replay_warm': ('store.hits', 'multicore.s', 'replay.cycles'),
            'delay_sweep_closed': ('closed_loop.cycles', 'solver.solves'),
        }
        for w in spec()['workloads']:
            with self.subTest(workload=w['name']):
                r = bench(w['name'], trace=1)
                self.assertTrue(r['correct'])
                self.assertEqual(set(r['metrics']),
                                 {m['name'] for m in spec()['per_layer']})
                m = {k: v['value'] for k, v in r['metrics'].items()}
                self.assertEqual(m['fail_ratio'], 0.0)
                self.assertGreater(m['cpu.cycle_ns'], 0)
                for name in busy[w['name']]:
                    self.assertGreater(m[name], 0, name)
                if w['name'] == 'replay_warm':
                    self.assertEqual(m['trace_cache.captures'], 0)


if __name__ == '__main__':
    unittest.main()
