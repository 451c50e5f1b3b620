GO ?= go
SMOKE_OUT := $(shell mktemp -u /tmp/sweep-smoke.XXXXXX.jsonl)
TELEMETRY_DEMO_OUT ?= telemetry-demo

PROFILE_OUT ?= profiles
FABRIC_ADDR ?= 127.0.0.1:9178
FABRIC_TMP := $(shell mktemp -u /tmp/fabric-smoke.XXXXXX)
BENCH_JSON ?= BENCH_PR12.json
BENCH_BASELINE ?= BENCH_PR12.json
BENCH_DIFF_JSON := $(shell mktemp -u /tmp/bench-diff.XXXXXX.json)
OBS_DEMO_ADDR ?= 127.0.0.1:9177

.PHONY: check lint vet build test race smoke fabric-smoke bench-smoke telemetry-demo profile bench-json bench-diff obs-demo clean

# check is the full pre-merge gate: static analysis, build, race-enabled
# tests, an end-to-end smoke sweep through cmd/sweep, and a one-iteration
# compile-and-run pass over every benchmark. bench-diff is advisory (the
# leading dash): it re-measures the headline benchmarks and prints the
# delta against the committed baseline, but machine noise means a red row
# is a prompt to investigate, not a build failure.
check: lint build race smoke bench-smoke
	-$(MAKE) bench-diff

# lint is all static analysis: go vet plus the repository's own analyzers
# (determinism, seedflow, paniclint, hotpath, publish — see
# internal/lint). The -max-elapsed budget keeps the from-source typecheck
# fast enough to live in the edit-check loop; raise NOCLINT_BUDGET if a
# slow machine trips it.
NOCLINT_BUDGET ?= 120s
lint: vet
	$(GO) run ./cmd/noclint -max-elapsed $(NOCLINT_BUDGET)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke runs the 4-job example spec through the real CLI and engine,
# then re-runs it against the same output to prove resume skips all 4.
smoke:
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	$(GO) run ./cmd/sweep -spec examples/sweepspec_smoke.json -out $(SMOKE_OUT)
	@rm -f $(SMOKE_OUT)

# fabric-smoke proves the distributed sweep fabric end-to-end: a
# single-process reference run (-ordered), then a coordinator with two
# workers over the same spec — one worker killed mid-run so its lease
# expires and its jobs are re-queued — and a canonical-form diff of the two
# JSONL outputs (the exec footprint legitimately differs per mode; the
# simulated results must not). The kill-one leg is also the fleet
# observability probe: /metrics must show the lease expiry, the timeline
# endpoint must answer, and the coordinator must leave a flight-recorder
# dump. Finally the coordinator is killed and restarted on the same store
# directory: resubmitting the identical spec must be answered entirely from
# the content-addressed store (0 pending, store-hit series non-zero).
fabric-smoke:
	@mkdir -p $(FABRIC_TMP)
	$(GO) build -o $(FABRIC_TMP)/sweep ./cmd/sweep
	$(FABRIC_TMP)/sweep -spec examples/sweepspec_smoke.json -out $(FABRIC_TMP)/single.jsonl -ordered
	@set -e; \
	$(FABRIC_TMP)/sweep -serve $(FABRIC_ADDR) -store $(FABRIC_TMP)/store \
		-flight-dir $(FABRIC_TMP)/flight \
		-lease-jobs 1 -lease-ttl 3s -heartbeat 500ms & coord=$$!; \
	w1=; w2=; trap 'kill $$coord $$w1 $$w2 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(FABRIC_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	$(FABRIC_TMP)/sweep -connect http://$(FABRIC_ADDR) & w1=$$!; \
	$(FABRIC_TMP)/sweep -connect http://$(FABRIC_ADDR) & w2=$$!; \
	id=$$(curl -fsS -X POST --data-binary @examples/sweepspec_smoke.json \
		http://$(FABRIC_ADDR)/submit | sed 's/.*"sweep_id":"\([^"]*\)".*/\1/'); \
	echo "sweep $$id submitted"; \
	sleep 0.5; kill -9 $$w1 2>/dev/null || true; echo "killed worker 1 mid-run"; \
	for i in $$(seq 1 240); do \
		curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id | grep -q '"status":"done"' && break; \
		sleep 0.5; \
	done; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id | grep -q '"status":"done"' \
		|| { echo "fabric-smoke: sweep never finished"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id/results > $(FABRIC_TMP)/fabric.jsonl; \
	sed -E 's/,"exec":\{[^}]*\}//' $(FABRIC_TMP)/single.jsonl > $(FABRIC_TMP)/single.canon.jsonl; \
	sed -E 's/,"exec":\{[^}]*\}//' $(FABRIC_TMP)/fabric.jsonl > $(FABRIC_TMP)/fabric.canon.jsonl; \
	cmp $(FABRIC_TMP)/single.canon.jsonl $(FABRIC_TMP)/fabric.canon.jsonl \
		|| { echo "fabric-smoke: distributed output differs from single-process"; exit 1; }; \
	echo "fabric output canonically identical to single-process ($$(wc -c < $(FABRIC_TMP)/fabric.canon.jsonl) bytes)"; \
	grep -q '"exec":{' $(FABRIC_TMP)/fabric.jsonl \
		|| { echo "fabric-smoke: records carry no exec footprint"; exit 1; }; \
	grep -q '"worker":"w' $(FABRIC_TMP)/fabric.jsonl \
		|| { echo "fabric-smoke: records carry no worker attribution"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/metrics | grep -Eq '^fleet_leases_expired_total [1-9]' \
		|| { echo "fabric-smoke: /metrics shows no lease expiry after kill"; exit 1; }; \
	echo "lease expiry visible in /metrics"; \
	curl -fsS http://$(FABRIC_ADDR)/sweeps/$$id/timeline | grep -q '"spans"' \
		|| { echo "fabric-smoke: timeline endpoint returned no spans"; exit 1; }; \
	test -s $(FABRIC_TMP)/flight/coordinator-lease-expiry.flight.jsonl \
		|| { echo "fabric-smoke: no coordinator flight dump after lease expiry"; exit 1; }; \
	echo "timeline served; flight dump present"; \
	kill $$coord 2>/dev/null || true; wait $$coord 2>/dev/null || true; \
	$(FABRIC_TMP)/sweep -serve $(FABRIC_ADDR) -store $(FABRIC_TMP)/store \
		-flight-dir $(FABRIC_TMP)/flight \
		-lease-jobs 1 -lease-ttl 3s -heartbeat 500ms & coord=$$!; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(FABRIC_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -fsS -X POST --data-binary @examples/sweepspec_smoke.json http://$(FABRIC_ADDR)/submit \
		| grep -q '"pending":0' \
		|| { echo "fabric-smoke: resubmit was not served from the store"; exit 1; }; \
	curl -fsS http://$(FABRIC_ADDR)/metrics | grep -Eq '^fleet_store_hits_total [1-9]' \
		|| { echo "fabric-smoke: restarted coordinator shows no store hits"; exit 1; }; \
	echo "resubmit served entirely from store (store-hit series non-zero)"
	@rm -rf $(FABRIC_TMP)

# bench-smoke compiles and runs every benchmark exactly once — it catches
# bit-rotted benches without paying for real measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# telemetry-demo produces the paper's bottom-vs-diamond link-load contrast
# as telemetry artifacts: two instrumented runs whose heatmap.csv files
# show the MC-edge concentration (bottom) against the spread-out diamond.
telemetry-demo:
	$(GO) run ./cmd/nocsim -bench KMN -placement bottom \
		-telemetry-epoch 1000 -telemetry-out $(TELEMETRY_DEMO_OUT)/bottom
	$(GO) run ./cmd/nocsim -bench KMN -placement diamond \
		-telemetry-epoch 1000 -telemetry-out $(TELEMETRY_DEMO_OUT)/diamond
	@echo "artifacts in $(TELEMETRY_DEMO_OUT)/{bottom,diamond}/{series.jsonl,heatmap.csv,trace.json}"

# bench-json measures the headline cycle-kernel benchmarks — full-GPU cycle
# under the active-set and reference steppers, the 16×16 large mesh, plus
# the saturated router step — as 8 fixed-iteration runs
# each, and writes the min/median/max summary to $(BENCH_JSON) via
# cmd/benchjson. Fixed iterations + medians make the file meaningful to
# diff between commits on the same machine.
bench-json:
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkGPUCycle|BenchmarkGPUCycleReference|BenchmarkGPUCycleLarge|BenchmarkRouterStep)$$' \
		-benchtime 20000x -count 8 . | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-diff re-measures the headline benchmarks and compares median ns/op
# against the committed baseline (BENCH_BASELINE) with a ±5% noise band.
# Exit status is the comparison verdict: non-zero when any benchmark
# regressed beyond the band or vanished from the new run.
bench-diff:
	$(MAKE) bench-json BENCH_JSON=$(BENCH_DIFF_JSON)
	$(GO) run ./cmd/benchjson diff -baseline $(BENCH_BASELINE) \
		-new $(BENCH_DIFF_JSON) -fail-on-regress
	@rm -f $(BENCH_DIFF_JSON)

# obs-demo shows the live observability surface: a real run with the HTTP
# server up, scraped once per endpoint mid-flight. See README
# "Live observability".
obs-demo:
	$(GO) run ./cmd/nocsim -bench KMN -cycles 2000000 -telemetry-epoch 1000 \
		-obs-addr $(OBS_DEMO_ADDR) -obs-publish 500 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(OBS_DEMO_ADDR)/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	echo "--- /progress ---"; curl -fsS http://$(OBS_DEMO_ADDR)/progress; echo; \
	echo "--- /metrics (head) ---"; curl -fsS http://$(OBS_DEMO_ADDR)/metrics | head -20; \
	echo "--- /state (head) ---"; curl -fsS http://$(OBS_DEMO_ADDR)/state | head -c 400; echo; \
	wait $$pid

# profile captures CPU and allocation profiles of a representative run:
# one full-GPU simulation on the heaviest benchmark. Inspect with
#   go tool pprof -top $(PROFILE_OUT)/nocsim.cpu
# (see README "Profiling" for how to read them against the cycle kernel).
profile:
	@mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/nocsim -bench KMN -cycles 200000 \
		-cpuprofile $(PROFILE_OUT)/nocsim.cpu -memprofile $(PROFILE_OUT)/nocsim.mem >/dev/null
	@echo "profiles in $(PROFILE_OUT)/nocsim.{cpu,mem}"

clean:
	$(GO) clean ./...
