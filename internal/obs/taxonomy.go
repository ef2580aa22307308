package obs

// taxonomy.go — the span vocabulary shared by the instrumented layers. Cats
// name subsystems, the constants below name the operations whose records
// other components match on (the progress meter counts chunk and resume
// spans; the service derives stage histograms from queue-wait, setup,
// chunk and rank spans). Free-form names are fine for everything else.

const (
	// CatDSE covers the sweep engines: one sweep root per exploration,
	// one chunk span per claimed work unit, one resume span per restored
	// checkpoint chunk.
	CatDSE = "dse"
	// CatJob covers the rpserved job lifecycle: job root, queue-wait,
	// setup, the nested sweep and the rank.
	CatJob = "job"
	// CatCache covers serve/cache.Tiered lookups: mem-hit, disk-hit,
	// build, singleflight-wait, plus the builder's disk-read/decode/
	// compute/publish children.
	CatCache = "cache"
	// CatStore covers internal/store: read, verify, evict.
	CatStore = "store"
	// CatCPU covers internal/cpu simulation phases: warmup, prepare,
	// simulate.
	CatCPU = "cpu"
	// CatAudit covers internal/audit: one audit root per audited sweep,
	// one truth span per ground-truth re-derivation.
	CatAudit = "audit"
	// CatFleet covers internal/fleet: one lease span per granted lease, one
	// evaluate and one publish span per chunk a worker runs, one assemble
	// span per coordinator report.
	CatFleet = "fleet"
)

const (
	// NameSweep is the root span of one engine sweep; Detail carries the
	// engine name, Arg the design-point count.
	NameSweep = "sweep"
	// NameChunk is one claimed work unit; TID carries the worker index,
	// Arg the chunk's point count.
	NameChunk = "chunk"
	// NameResume is one checkpoint chunk restored instead of evaluated;
	// Arg carries its point count.
	NameResume = "resume"
	// NameSearch is the root span of one guided search; Detail carries
	// "engine/mode", Arg the probe count.
	NameSearch = "search"
	// NameRound is one search probe round; Arg carries the round's probed
	// point count. The round's engine work appears as nested chunk spans.
	NameRound = "round"
	// NameQueueWait is the time a job spent queued before a worker
	// claimed it.
	NameQueueWait = "queue-wait"
	// NameSetup is a job's setup phase: the workload lookup of a named
	// workload, then the one input its engine reads — the analysis lookup
	// of an RpStacks job, the graph of a graph job, the µop stream of a
	// sim job.
	NameSetup = "setup"
	// NameAnalyze is the one RpStacks analysis of a trace, run by the first
	// RpStacks job whose analysis lookup missed both cache tiers (inside
	// that job's setup); Arg carries the trace's µop count.
	NameAnalyze = "analyze"
	// NameGraphBuild is the one build of a trace's dependence graph per
	// trace digest, on its first use by a graph job (inside that job's
	// setup) or by the graph oracle; Arg carries the trace's µop count.
	NameGraphBuild = "graph-build"
	// NameUOpsRegenerate is the regeneration of a named workload's measured
	// µop stream that a durable-tier hit did not hold: by the first sim job
	// on the entry (inside that job's setup), or by the decode of a recipe
	// this process has not generated yet; Arg carries the µop count.
	NameUOpsRegenerate = "uops-regenerate"
	// NameRank is a sweep job's ranking of its predicted points into the
	// returned top list; Arg carries the grid's point count.
	NameRank = "rank"
	// NameAudit is the root span of one accuracy audit; Detail carries the
	// audited engine, Arg the sampled point count.
	NameAudit = "audit"
	// NameTruth is one ground-truth re-derivation (oracle run); TID
	// carries the audit worker index.
	NameTruth = "truth"
	// NameLease is one granted fleet lease; Detail carries the sweep id,
	// Arg the chunk's point count.
	NameLease = "lease"
	// NameEvaluate is one fleet chunk evaluated on a worker; TID carries
	// nothing (workers are processes), Arg the chunk's point count.
	NameEvaluate = "evaluate"
	// NamePublish is one fleet chunk result blob published into the shared
	// store plus its completion call; Arg carries the blob size in bytes.
	NamePublish = "publish"
	// NameAssemble is the coordinator reading every published chunk blob
	// back and building the final Report; Arg carries the chunk count.
	NameAssemble = "assemble"
	// ArgPoints is the ArgKey of chunk/resume/sweep point counts.
	ArgPoints = "points"
)
