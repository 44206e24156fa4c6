# Convenience targets for the SAMR-DLB reproduction.

.PHONY: install test bench figures fullscale examples perf perf-trace all

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# print every regenerated paper figure / ablation table
figures:
	pytest benchmarks/ --benchmark-only -q -s

# the optional 24^3 / 4-level rerun of Fig. 7
fullscale:
	REPRO_FULLSCALE=1 pytest benchmarks/test_fullscale.py --benchmark-only -q -s

# the perfbench ledger (perfbench/README.md): every workload, untraced
perf:
	for w in amr-shockpool replay-4096 daemon-sweep; do python3 perfbench/run.py --workload $$w --trace 0 || exit 1; done

# one workload with per-layer host-clock spans: make perf-trace W=replay-4096
W ?= amr-shockpool
perf-trace:
	python3 perfbench/run.py --workload $(W) --trace 1

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f --quick || exit 1; done

all: install test bench
