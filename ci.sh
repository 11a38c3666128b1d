#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Equivalent to `make verify`.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
test -z "$(gofmt -l .)"
echo "== go build =="
go build ./...
echo "== go vet =="
go vet ./...
echo "== go test -race =="
go test -race ./...
echo "== bench module (stage chain vs Store.Query, metric names vs BENCHMARK.json) =="
(cd bench && go vet ./... && go test -race ./...)
echo "== kernel equivalence (parallel on/off), variable-predicate shapes vs the oracle, lateral unpivot, plan cache =="
go test -race -run 'TestKernelEquivalence|TestPlanCache|TestVariablePredicate' -count=1 .
go test -race -run 'TestLateral|Unpivot' -count=1 ./internal/rel/
echo "== one join kernel (inner/outer x index/hash/nested, workers 1 and 4) =="
go test -race -count=3 -run 'TestParallelKernelEquivalence|TestJoin|TestGovern' ./internal/rel/
echo "== write-stable plan cache (plan epoch vs the oracle, held snapshots, statistics independence) =="
go test -race -count=3 -run '^TestPlanCacheAcrossWrites$' .
go test -race -count=1 -run '^TestPlanAnswersIndependentOfStatistics$|^TestMarkerStableWriteKeepsCapturedMaps$' . ./internal/store/
echo "== closures (stable names, per-snapshot memo, inference reflexivity) =="
go test -race -count=3 -run 'TestPath|TestInference|TestPlanCacheKeepsClosures|TestClosure' .
echo "== one read view (live vs published snapshot, published epoch, Update chains) =="
go test -race -count=3 -run 'TestLiveSnapshotMatchesPublished|TestPublishedEpochNeverAhead|TestUpdateOperationSequence|TestClosureMemo' . ./internal/store/
echo "== typed plan (translator-built bound query, SQL as its printed rendering, cold-compile allocations) =="
go test -race -count=3 \
    -run 'TestTranslatedSQLRoundTrip|TestFilterNumericLiteralForms|TestNaNIsUnordered|TestColdCompileAllocs|TestLUBMTemplatesSQLUnchanged|TestWarmQueryAllocs' .
go test -race -count=3 -run 'TestPrint|TestBindIsRequired|FuzzSQLPrintRoundTrip|TestLateralErrors' ./internal/rel/
echo "== ids compare by equality (FILTER forms vs SPARQL 1.1 §17, plain literals ordered as strings, equality-only base-table conjuncts, residual scan answers, zone skip, lateral) =="
go test -race -count=3 \
    -run 'TestFilterSpecForms|TestPlainLiteralOrder|TestTranslatedSQLRoundTrip|TestVectorizedScanEquivalence|TestZoneMapStillPrunesCleanChunks|TestLateral' \
    . ./internal/rel/
echo "== one SQL dialect (out-of-dialect shapes and non-id items rejected by name, id join/DISTINCT/index keys, translated SQL round trip, fused lateral, narrow reads, baselines) =="
go test -race -count=3 \
    -run 'TestBindRejectsOutsideDialect|TestLateral|TestNarrowReadEquivalence|TestJoinLargeIdsExact|TestMultiColumnJoin|TestDistinctMixedKinds|TestSeparatorCollision|TestFloatIndexRegression|TestValueKeyInjectiveForInts' \
    ./internal/rel/
go test -race -count=3 -run 'TestTranslatedSQLRoundTrip' .
go test -race -count=3 ./internal/baselines/
echo "== pointer-free rows (8-byte id cells, NULL sentinel, join kernels and id keys, FILTER forms, warm-path allocations) =="
go test -race -count=3 \
    -run 'TestRowCellsHoldNoPointers|TestJoinKernelsAgree|TestJoinLargeIdsExact|TestFloatIndexRegression|TestParallelKernelEquivalence|TestNarrowReadEquivalence|TestLateral' \
    ./internal/rel/
go test -race -count=3 \
    -run 'TestFilterNumericLiteralForms|TestFilterSpecForms|TestTranslatedSQLRoundTrip|TestWarmQueryAllocs|TestNaNIsUnordered|TestStorageEquivalence' .
echo "== flat batches (row order pinned by a golden, kernels agree at 1 and 4 workers, two units per core laid out in FROM order, budgets charge rows kept, warm-path allocations) =="
go test -race -count=3 \
    -run 'TestRowOrderGolden|TestParallelKernelEquivalence|TestJoinKernelsAgree|TestJoinLayoutFollowsFrom|TestBindRejectsOutsideDialect|TestGovern|TestBudget|TestMemoryBudget' \
    ./internal/rel/
go test -race -count=3 -run 'TestWarmQueryAllocs' .
echo "== one-pass result decode (one binding slab and one key arena per Results, per-cell reference, allocations independent of rows, driver rows) =="
go test -race -count=3 -run '^TestResultsMatchPerCellDecode$|^TestResultsAllocsIndependentOfRows$|^TestSolveContextMatchesQuery$' .
go test -race -count=3 ./driver/
echo "== one compile path (Query, Solve, Explain, Analyze, QueryGraph, Update WHERE) =="
go test -race -count=1 \
    -run 'TestSyntaxErrorIsTyped|TestDescribe|TestInference|TestAnalyze|TestExplainArtifacts|TestPathExplain' .
echo "== insert paths vs the brute-force oracle (Insert, LoadTriples, top-up, Update, WAL replay: each write one bulk load; morsel workers 1 / 4) =="
go test -race -run 'TestStorageEquivalence' -count=1 .
echo "== statistics (derived from the snapshot: held-snapshot plans repeat, counts match Export) =="
go test -race -count=1 -run 'TestStatisticsFollowSnapshot|TestDerivedStatisticsMatchOracle' .
echo "== one insert path derived from the tables (Insert, Update and WAL replay as bulk loads onto existing entities; entry/lid/elm postings; per-side list ids) =="
go test -race -count=1 \
    -run 'TestMarker|TestLoadParallel|TestDuplicateLoadStats|TestMultiValueConversion|TestSpills|TestDerivedStatisticsMatchOracle' \
    . ./internal/store/
# The bulk loader places the two sides on two goroutines, each minting
# its own list ids; every entry point (LoadReader, LoadTriples, Update)
# must give the same tables, dictionary, export and SQL, run after run,
# under -race; a reopened store (snapshot or WAL replay) mints above
# every stored lid; compiling a query writes no term.
go test -race -count=3 -run '^TestLoadPathsAgree$|^TestListIdsAfterReopen$|^TestCompileDoesNotWriteDictionary$' .
go test -race -count=3 -run '^TestLidsDisjointFromTermIDs$' ./internal/dict/
echo "== abort paths (governance, fault injection, panic containment) =="
go test -race -count=1 \
    -run 'TestExecContext|TestFault|TestPanic|TestAbort|Budget|TestQueryContext|TestDeadline|TestQueryTimeout|TestEarlierParent|TestGraphQueryGovernance|TestPathClosureGovernance|TestExplainGovernance' \
    ./internal/rel/ .
echo "== one cell type (int-only storage, snapshot bytes unchanged) =="
go test -race -count=1 \
    -run 'TestColumnarRoundTrip|TestVectorizedScanEquivalence|TestSnapshot|TestFloatIndexRegression' \
    ./internal/rel/
echo "== observability: plan-cache accounting, metrics, analyze harness =="
go test -race -count=1 \
    -run 'TestPlanCacheAccountingConcurrent|TestPlanCacheStaleGetAccounting|TestMetricsRegistry|TestSlowQueryLog|TestAnalyzeEstimateVsActual|TestZoneMapStillPrunesCleanChunks|TestLimitOffsetPathEquivalence' \
    ./internal/rel/ .
echo "== update equivalence (interleaved insert/delete, concurrent readers) =="
go test -race -count=1 \
    -run 'TestUpdateInterleavingEquivalence|TestUpdateConcurrentReaders|TestUpdateNoOpKeepsPlanCache' .
echo "== snapshot isolation (mixed read/write, torn-read + goroutine-leak checks) =="
go test -race -count=1 \
    -run 'TestSnapshotIsolationReaders|TestConcurrentInsertQueryExport|TestLoadParallelConcurrentReaders' .
echo "== publish costs the delta (postMap vs a plain map, sealed runs pointer-free and built in constant allocations, copies per publish, exact markers vs the tables, isolation, update equivalence) =="
go test -race -count=3 -run 'TestPostMapModel|TestSealedRunHoldsNoPointers|TestSealAllocsIndependentOfKeys|TestPublishCopiesIndependentOfTableSize' ./internal/rel/
go test -race -count=3 -run 'TestMarker|TestSnapshotIsolationReaders|TestUpdateInterleavingEquivalence' . ./internal/store/
echo "== crash recovery (kill points, bit flips, WAL replay, reclamation) =="
go test -race -count=1 \
    -run 'TestDurableCloseReopen|TestWALOnlyCrashReopen|TestKillPointRecovery|TestBitFlipFaultInjection|TestSnapshotReclaimsDeletedState|TestBackgroundSnapshotRotation|TestDurableConfigMismatch' .
echo "== SPARQL endpoint (protocol matrix, conneg, 503 mapping, shedding, drain, streaming from ids) =="
go test -race -count=1 \
    -run 'TestProtocolMatrix|TestContentNegotiation|TestWritableUpdates|TestGovernanceMapsTo503|TestDeadlineMapsTo503|TestAdmissionControlSheds|TestConcurrentMixedTraffic|TestOversizeBodyRejected|TestGracefulDrain|TestClientLeavesMidBody|TestWireEncodeAllocs' \
    ./server/
echo "== endpoint smoke gate (real binary: startup, query, update, metrics, SIGTERM drain, SIGTERM right at startup) =="
go test -race -count=1 -run '^TestServerBinary(Smoke|SIGTERMAtStartup)$' ./server/
echo "== wire serialization round-trips, byte identity with the reference writers, database/sql driver corpus =="
go test -race -count=1 ./results/ ./driver/
echo "== hot-path perf gate (reads during load) =="
DB2RDF_PERF_GATE=1 go test -count=1 -run '^TestPerfGate' -v .
echo "== resident-bytes gate (encoded tables <= 0.35x logical size, fc dict <= 0.7x raw terms) =="
DB2RDF_PERF_GATE=1 go test -count=1 -run '^TestResidentBytesGate$' -v .
echo "== fuzz smoke (5s per target) =="
go test -run '^$' -fuzz '^FuzzLoadReader$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzParseUpdate$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s .
go test -run '^$' -fuzz '^FuzzReadSegment$' -fuzztime 5s ./internal/wal/
go test -run '^$' -fuzz '^FuzzChunkRoundTrip$' -fuzztime 5s ./internal/rel/
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 5s ./internal/rel/
go test -run '^$' -fuzz '^FuzzSQLPrintRoundTrip$' -fuzztime 5s ./internal/rel/
go test -run '^$' -fuzz '^FuzzEncodeMatchesReference$' -fuzztime 5s ./results/
echo "ok"
