#!/usr/bin/env python3
"""Rewrite perfbench/digests.json: the output digests of seeds 0-63.

Run it only after a change that is meant to alter vguard's results,
and say so in the change's description:

  python3 perfbench/pin_digests.py

It builds the child program like run.py, calibrates the stressmark once
and runs one tab02_cold and one delay_sweep_closed operation per seed.
replay_warm shares tab02_cold's digests; its chip digest depends on the
stressmark alone, so one store-backed operation pins it for every seed.
"""

import json
import os
import shutil
import sys

import run

SEEDS = range(64)


def main():
    binary = run.build()
    stress = run.run_child(binary, ['calibrate']).out['stress']
    pinned = {}
    for seed in SEEDS:
        digests = {}
        for args in (['op', 'tab02_cold'],
                     ['op', 'delay_sweep_closed', '--stress', stress]):
            child = run.run_child(binary, args + ['--seed', str(seed)])
            if child.out is None or not all(child.out['checks'].values()):
                sys.exit('seed %d: %s failed its checks' % (seed, args[1]))
            digests.update(child.out['digests'])
        pinned[str(seed)] = digests
    store = os.path.join(run.WORK_DIR, 'pin-store')
    os.makedirs(store, exist_ok=True)
    child = run.run_child(binary, ['op', 'replay_warm', '--seed', '0',
                                   '--store', store])
    shutil.rmtree(store, ignore_errors=True)
    if child.out is None:
        sys.exit('replay_warm failed')
    for digests in pinned.values():
        digests['chip'] = child.out['digests']['chip']
    with open(run.PINNED, 'w') as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write('\n')


if __name__ == '__main__':
    main()
