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

# Full evaluation sweep; drops one BENCH_<exp>.json per experiment.
bench:
	dune exec bench/main.exe -- --json-dir .

# Paranoid run of every experiment: re-audit after each commit/restore.
bench-audit:
	dune exec bench/main.exe -- --audit

.PHONY: all test fmt ci bench bench-fresh bench-diff bench-audit
