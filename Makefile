# Convenience targets. `make ci` is the whole gate: anything a CI job (or
# a pre-commit hook) should run lives behind it.
#
# Formatting: no `.ocamlformat` is committed because the target toolchain
# ships no ocamlformat binary (a config file would break `dune build @fmt`
# for everyone). Match the hand-formatting conventions of the surrounding
# code instead — see README "Building".

all:
	dune build @all

test:
	dune runtest

# Formatting gate: checks only when an ocamlformat binary exists (the
# baked-in toolchain has none — see the header comment), so CI stays
# green everywhere while still catching drift where the tool is present.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt: ocamlformat not installed; skipping (hand-format per README)"; \
	fi

# Where a CI run drops its freshly generated BENCH_<exp>.json files before
# comparing them against the committed copies at the repo root.
BENCH_FRESH := _build/bench-fresh

# Regenerate the CI-scale BENCH files into $(BENCH_FRESH) (committed
# copies stay untouched until `make ci` promotes them).  fig11 and fig14
# run at full scale (a few seconds each): they pin the callers of the
# virtual-time driver (`System.advance_to`) that no smoke run covers.
# ablate (~2 s) pins the design ablations: the eidetic archive fed by the
# protect pass, and the eager against the incremental walk.
bench-fresh:
	rm -rf $(BENCH_FRESH) && mkdir -p $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp extsync_lat --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp incr_walk --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp crashtest --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp wear --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp rto --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp adaptive --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp async_drain --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp multitenant --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp fig10 --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp table3 --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp fig11 --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp fig14 --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp ablate --json-dir $(BENCH_FRESH)

# Per-metric deltas of the fresh results vs the committed copies
# (informational; the self-gating experiments above are what fail).
bench-diff: bench-fresh
	dune exec bench/bench_diff.exe $(BENCH_FRESH) .

ci:
	dune build @all
	dune runtest
	$(MAKE) fmt
	dune exec bench/main.exe -- --exp smoke --audit
	$(MAKE) bench-diff
	cp $(BENCH_FRESH)/BENCH_*.json .

# Sampled host-time profile of one benchmark workload (not part of `make
# ci`): tools/profile/pcprof.so, preloaded, records the interrupted PC
# and its backtrace at every SIGPROF tick of CPU time, and folded.exe
# symbolises them into folded stacks.  The runner is started directly,
# not under `dune exec`, so the samples are its own.  The .folded file
# keeps every sample; the tables on stderr (top self frames, top library
# frames inclusive) count only the stacks outside PROFILE_OUTSIDE: the
# runner's calibration loop, its percentile sort and its set-up, none of
# which host_ops_per_s counts.  Example: make profile W=serve_write SEED=1 SECS=25
W ?= serve_write
SEED ?= 1
SECS ?= 10
PROFILE_DIR := _build/profile
PROFILE_OUTSIDE := Reference.time Workload.pct_inner Workload.timed_setup

profile:
	dune build benchmark/run.exe tools/profile/folded.exe
	mkdir -p $(PROFILE_DIR)
	cc -O2 -shared -fPIC -o $(PROFILE_DIR)/pcprof.so tools/profile/pcprof.c
	PCPROF_OUT=$(PROFILE_DIR)/$(W).samples LD_PRELOAD=$(PROFILE_DIR)/pcprof.so \
		_build/default/benchmark/run.exe --workload $(W) --seed $(SEED) --seconds $(SECS) --trace 0
	_build/default/tools/profile/folded.exe _build/default/benchmark/run.exe \
		$(PROFILE_DIR)/$(W).samples $(addprefix --outside ,$(PROFILE_OUTSIDE)) > $(PROFILE_DIR)/$(W).folded
	@echo "folded stacks: $(PROFILE_DIR)/$(W).folded"

# Full evaluation sweep; drops one BENCH_<exp>.json per experiment.
bench:
	dune exec bench/main.exe -- --json-dir .

# Paranoid run of every experiment: re-audit after each commit/restore.
bench-audit:
	dune exec bench/main.exe -- --audit

.PHONY: all test fmt ci bench bench-fresh bench-diff bench-audit profile
