// Package streampca is a robust, incremental, parallel principal components
// analysis library for high-dimensional data streams — a from-scratch Go
// reproduction of "Incremental and Parallel Analytics on Astrophysical Data
// Streams" (Mishin, Budavári, Szalay, Ahmad; SC 2012).
//
// The core estimator (Engine) maintains a truncated eigensystem of a
// robustly weighted covariance matrix and updates it per observation in
// O(d·(p+1)²) via a low-rank SVD. It tolerates gross outliers (Maronna
// M-scale weighting), forgets old data at a configurable rate (exponential
// window), patches missing entries from its own basis, and merges with
// eigensystems estimated on other sub-streams, which is what makes the
// parallel pipeline (RunPipeline) scale: the source's random split
// distributes tuples across engines whose states are periodically
// synchronized under a data-driven independence criterion.
//
// The package re-exports the repository's internal building blocks as a
// stable facade: the estimator (core), robust losses (robust), synthetic
// SDSS-like spectra and Gaussian workloads (spectra), the goroutine
// dataflow pipeline (pipeline/stream/syncctl), and a discrete-event cluster
// simulator (cluster) that regenerates the paper's performance figures.
//
// Quick start:
//
//	en, err := streampca.NewEngine(streampca.Config{Dim: 500, Components: 5})
//	if err != nil { ... }
//	for x := range observations {
//		u, err := en.Observe(x)
//		if u.Outlier { ... flag for follow-up ... }
//	}
//	es, _ := en.Snapshot() // es.Vectors, es.Values, es.Mean, es.Sigma2
package streampca

import (
	"context"
	"io"
	"net"
	"net/http"

	"streampca/internal/cluster"
	"streampca/internal/core"
	"streampca/internal/fault"
	"streampca/internal/ingest"
	"streampca/internal/mat"
	"streampca/internal/obs"
	"streampca/internal/pipeline"
	"streampca/internal/robust"
	"streampca/internal/spectra"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
	"streampca/internal/wire"
)

// Core estimator types.
type (
	// Config parameterizes an Engine; see the field docs for the paper
	// correspondence (α, δ, p, q, ...).
	Config = core.Config
	// Engine is the streaming robust PCA estimator.
	Engine = core.Engine
	// Eigensystem is an Engine state snapshot: mean, eigenvectors,
	// eigenvalues, M-scale, and the decayed sums used in merging.
	Eigensystem = core.Eigensystem
	// Update reports the effect of one observation.
	Update = core.Update
	// BatchResult is the output of the offline baselines.
	BatchResult = core.BatchResult
	// Matrix is the dense row-major matrix used throughout (eigenvector
	// columns, bases).
	Matrix = mat.Dense
)

// Robust-loss types.
type (
	// Rho is a bounded robust loss on squared standardized residuals.
	Rho = robust.Rho
	// Bisquare is Tukey's biweight, the default loss.
	Bisquare = robust.Bisquare
	// Classic is the identity-weight loss that recovers classical PCA.
	Classic = robust.Classic
)

// NewEngine validates cfg and returns a streaming estimator.
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// BatchPCA is the offline classical baseline.
func BatchPCA(xs [][]float64, p int) (*BatchResult, error) { return core.BatchPCA(xs, p) }

// BatchRobustPCA is the offline Maronna (2005) robust baseline.
func BatchRobustPCA(xs [][]float64, p int, rho Rho, delta float64, maxIter int) (*BatchResult, error) {
	return core.BatchRobustPCA(xs, p, rho, delta, maxIter)
}

// RobustEigenvalues estimates a robust variance along each column of basis
// (§II-B), enabling comparisons between arbitrary bases.
func RobustEigenvalues(basis *Matrix, mean []float64, xs [][]float64, rho Rho, delta float64) ([]float64, error) {
	return core.RobustEigenvalues(basis, mean, xs, rho, delta)
}

// MergeMany folds eigensystems from independent sub-streams into one
// (eqs. 15–16).
func MergeMany(systems []*Eigensystem) (*Eigensystem, error) { return core.MergeMany(systems) }

// DefaultBisquare returns the bisquare loss tuned for 50% breakdown.
func DefaultBisquare() Bisquare { return robust.DefaultBisquare() }

// TuneBisquare returns the bisquare cutoff consistent with breakdown delta
// at the normal model.
func TuneBisquare(delta float64) float64 { return robust.TuneBisquare(delta) }

// MScale solves the M-scale equation (eq. 5) for squared residuals.
func MScale(rho Rho, r2 []float64, delta, sigma0 float64) (float64, error) {
	return robust.MScale(rho, r2, delta, sigma0)
}

// Parallel pipeline types (Figure 2 wiring).
type (
	// PipelineConfig assembles a parallel streaming-PCA application.
	PipelineConfig = pipeline.Config
	// PipelineResult reports per-engine stats, the merged eigensystem,
	// and stream metrics.
	PipelineResult = pipeline.Result
	// PipelineSource feeds observations into a pipeline, which copies each
	// row before it pulls the next, so a source may reuse its storage.
	PipelineSource = pipeline.Source
	// EngineStats summarizes one engine's run.
	EngineStats = pipeline.EngineStats
	// SyncStrategy selects the synchronization pattern.
	SyncStrategy = syncctl.Strategy
)

// Synchronization strategies (§III-B).
const (
	// SyncRing is the circular pattern of Figure 3.
	SyncRing = syncctl.Ring
	// SyncBroadcast sends each shared state to every peer.
	SyncBroadcast = syncctl.Broadcast
	// SyncGroup broadcasts within fixed groups.
	SyncGroup = syncctl.Group
	// SyncPeerToPeer pairs engines randomly each round.
	SyncPeerToPeer = syncctl.PeerToPeer
)

// RunPipeline executes the parallel analysis graph until the source is
// exhausted (or ctx is cancelled) and returns the merged eigensystem and
// per-engine statistics.
func RunPipeline(ctx context.Context, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.Run(ctx, cfg)
}

// Distributed runtime types: the Figure-2 graph spread over OS processes,
// with TCP edges spliced where the source→engine and engine→sink channels
// used to be. The coordinator keeps source and split, sync controller and
// sink; each worker runs one PCA engine behind a reconnecting wire edge.
type (
	// DistConfig assembles a distributed streaming-PCA run.
	DistConfig = pipeline.DistConfig
	// WorkerConfig configures one worker process.
	WorkerConfig = pipeline.WorkerConfig
	// WorkerSpec is the JSON-serializable worker configuration the
	// re-exec harness ships across the process boundary.
	WorkerSpec = pipeline.WorkerSpec
	// WorkerCluster is a set of spawned worker processes.
	WorkerCluster = pipeline.Cluster
	// WireEdgeStats is a point-in-time copy of an edge's transport
	// counters (PipelineResult.Wire).
	WireEdgeStats = wire.EdgeStats
	// WireHello is the connection-opening handshake frame.
	WireHello = wire.Hello
	// WireConnPlan injects deterministic connection faults (per-message
	// resets and dial partitions) into an edge, via DistConfig.Chaos.
	WireConnPlan = wire.ConnPlan
)

// RunCoordinator drives a distributed run against already-listening
// workers and blocks until every worker reported its final state.
func RunCoordinator(ctx context.Context, cfg DistConfig) (*PipelineResult, error) {
	return pipeline.RunCoordinator(ctx, cfg)
}

// RunWorker listens on addr and serves coordinator sessions until the given
// session count completes (0 = until ctx is cancelled).
func RunWorker(ctx context.Context, addr string, sessions int, cfg WorkerConfig, ready func(net.Addr)) error {
	return pipeline.RunWorker(ctx, addr, sessions, cfg, ready)
}

// LaunchWorkers re-executes the current binary n times as wire workers on
// kernel-chosen localhost ports; pair it with WireWorkerFromEnv in main.
func LaunchWorkers(ctx context.Context, n int, spec WorkerSpec) (*WorkerCluster, error) {
	return pipeline.LaunchWorkers(ctx, n, spec)
}

// WireWorkerFromEnv turns the current process into a wire worker when the
// harness environment variable is set; call it first thing in main of any
// binary that launches workers via LaunchWorkers.
func WireWorkerFromEnv(ctx context.Context) (bool, error) {
	return pipeline.WorkerFromEnv(ctx)
}

// StreamMetrics is a point-in-time snapshot of one operator's counters, the
// element type of PipelineResult.Metrics (§III-D's per-operator profile).
type StreamMetrics = stream.MetricsSnapshot

// Synthetic-workload types.
type (
	// SpectraConfig parameterizes the synthetic SDSS-like survey stream.
	SpectraConfig = spectra.GeneratorConfig
	// SpectraGenerator streams synthetic galaxy spectra with known ground
	// truth.
	SpectraGenerator = spectra.Generator
	// Observation is one synthetic spectrum (flux, mask, redshift, truth).
	Observation = spectra.Observation
	// Grid is a log-uniform wavelength grid.
	Grid = spectra.Grid
	// SpectralLine is a named rest-frame feature.
	SpectralLine = spectra.Line
	// SignalConfig parameterizes the Gaussian performance workload.
	SignalConfig = spectra.SignalConfig
	// SignalGenerator streams Gaussian vectors with planted signals.
	SignalGenerator = spectra.SignalGenerator
)

// NewSpectraGenerator builds a reproducible synthetic survey stream.
func NewSpectraGenerator(cfg SpectraConfig) (*SpectraGenerator, error) {
	return spectra.NewGenerator(cfg)
}

// NewSignalGenerator builds the Gaussian workload of §III-D.
func NewSignalGenerator(cfg SignalConfig) (*SignalGenerator, error) {
	return spectra.NewSignalGenerator(cfg)
}

// SDSSGrid returns the survey-like wavelength grid (3800–9200 Å).
func SDSSGrid(bins int) Grid { return spectra.SDSSGrid(bins) }

// LineCatalog returns the standard optical line list.
func LineCatalog() []SpectralLine { return spectra.Catalog() }

// Normalize scales a (possibly gappy) spectrum to unit median flux, the
// §II-D preprocessing step.
func Normalize(flux []float64, mask []bool) (float64, error) {
	return spectra.Normalize(flux, mask)
}

// Cluster-simulation types (Figures 6–7).
type (
	// ClusterSpec describes the simulated hardware.
	ClusterSpec = cluster.Spec
	// ClusterWorkload describes the stream and PCA cost model.
	ClusterWorkload = cluster.Workload
	// ClusterConfig is one simulation scenario.
	ClusterConfig = cluster.Config
	// ClusterStats is a simulation outcome.
	ClusterStats = cluster.Stats
)

// SimulateCluster runs one placement scenario on the simulated testbed.
func SimulateCluster(cfg ClusterConfig) (*ClusterStats, error) { return cluster.Simulate(cfg) }

// Ingestion types (§III-A1 input flexibility).
type (
	// Stream yields observations until io.EOF (CSV, binary, TCP, HTTP).
	// Each vec and mask is valid until the next call.
	Stream = ingest.Stream
	// CSVOptions configures CSV parsing.
	CSVOptions = ingest.CSVOptions
	// TCPServer accepts CSV observation lines over TCP.
	TCPServer = ingest.TCPServer
	// RecordError marks a single malformed input record.
	RecordError = ingest.RecordError
)

// NewCSVStream parses comma-separated observations from r.
func NewCSVStream(r io.Reader, opts CSVOptions) Stream { return ingest.NewCSVStream(r, opts) }

// NewBinaryStream reads fixed-length little-endian float64 records.
func NewBinaryStream(r io.Reader, dim int) Stream { return ingest.NewBinaryStream(r, dim) }

// NewTCPServer accepts CSV observation lines on a TCP listener.
func NewTCPServer(addr string, opts CSVOptions) (*TCPServer, error) {
	return ingest.NewTCPServer(addr, opts)
}

// NewDirStream streams every CSV file in a folder, in name order.
func NewDirStream(dir, pattern string, opts CSVOptions) (*ingest.DirStream, error) {
	return ingest.NewDirStream(dir, pattern, opts)
}

// HTTPStream GETs a URL and parses the body as CSV observations.
func HTTPStream(url string, opts CSVOptions) (Stream, io.Closer, error) {
	return ingest.HTTPStream(url, opts)
}

// StreamSource adapts a Stream to a PipelineSource, skipping malformed
// records (reported to onErr when non-nil). Rows pass through uncopied and
// stay valid only until the next pull; the pipeline copies each into its
// frame first.
func StreamSource(s Stream, onErr func(error)) PipelineSource {
	return ingest.AsSource(s, onErr)
}

// Checkpointing (§III-C: periodic saving of intermediate results).

// WriteEigensystem serializes an eigensystem in the versioned binary
// checkpoint format.
func WriteEigensystem(w io.Writer, es *Eigensystem) error { return core.WriteEigensystem(w, es) }

// ReadEigensystem deserializes a checkpoint written by WriteEigensystem.
func ReadEigensystem(r io.Reader) (*Eigensystem, error) { return core.ReadEigensystem(r) }

// ResumeEngine builds a ready engine from a restored eigensystem, skipping
// warm-up; the robustness and forgetting parameters may be retuned.
func ResumeEngine(cfg Config, es *Eigensystem) (*Engine, error) {
	return core.ResumeEngine(cfg, es)
}

// DefaultClusterSpec returns the paper's 10-node, quad-core, 1 GbE testbed.
func DefaultClusterSpec() ClusterSpec { return cluster.DefaultSpec() }

// DefaultClusterWorkload returns the Figure 6 workload (250 dims, p=5).
func DefaultClusterWorkload() ClusterWorkload { return cluster.DefaultWorkload() }

// Fault-injection and recovery types: deterministic, seed-driven chaos for
// the stream engine, the pipeline, and the simulated cluster.
type (
	// FaultPlan is the per-edge (or per-operator) fault profile.
	FaultPlan = fault.Plan
	// FaultKind labels one injected fault (drop, dup, delay, reorder,
	// panic).
	FaultKind = fault.Kind
	// FaultEvent records one injected fault in an injector's log.
	FaultEvent = fault.Event
	// NodeFailure reports an operator that panicked during a run.
	NodeFailure = stream.NodeFailure
	// PipelineChaos configures fault injection for RunPipeline.
	PipelineChaos = pipeline.ChaosConfig
	// ClusterChaos configures fault injection for SimulateCluster.
	ClusterChaos = cluster.ChaosSpec
	// ClusterCrash schedules one simulated engine failure.
	ClusterCrash = cluster.CrashEvent
	// RetryPolicy configures exponential backoff for network connectors.
	RetryPolicy = ingest.RetryPolicy
)

// Fault kinds.
const (
	// FaultDrop discards a message.
	FaultDrop = fault.Drop
	// FaultDuplicate forwards a message twice.
	FaultDuplicate = fault.Duplicate
	// FaultDelay holds a message for a bounded number of successors.
	FaultDelay = fault.Delay
	// FaultReorder swaps a message with its successor.
	FaultReorder = fault.Reorder
	// FaultPanic is an injected operator panic.
	FaultPanic = fault.Panic
)

// Observability types: histogram/gauge/journal bundle threaded through the
// runtime, engines and sync controller via PipelineConfig.Obs, plus the
// exposition layer (JSON, Prometheus text, Chrome trace events, pprof).
type (
	// ObsSet is the root instrument bundle an instrumented run records into.
	ObsSet = obs.Set
	// ObsSnapshot is a point-in-time copy of every instrument in a set.
	ObsSnapshot = obs.Snapshot
	// ObsEvent is one control-plane journal entry (syncs, failures,
	// checkpoints, engine warm-ups).
	ObsEvent = obs.Event
)

// Journal event kinds external recorders are expected to append themselves
// (the pipeline journals the rest internally).
const (
	// ObsEvCrash marks an injected or simulated engine failure.
	ObsEvCrash = obs.EvCrash
	// ObsEvRecover marks the matching revival.
	ObsEvRecover = obs.EvRecover
)

// Cluster-observability types: the one read path over an ObsSet, which also
// aggregates worker obs-reports shipped over the wire (DistConfig.Cluster +
// WorkerConfig.ReportEvery), with NTP-style clock-offset correction, merged
// end-to-end latency histograms and a cluster-wide trace. A single process
// is a cluster of one node.
type (
	// ObsClusterCollector serves a local ObsSet as node "coordinator" and
	// merges worker reports into a cluster-wide view.
	ObsClusterCollector = obs.ClusterCollector
	// ObsClusterSnapshot is the aggregated point-in-time cluster view.
	ObsClusterSnapshot = obs.ClusterSnapshot
	// ObsNodeSnapshot is one node's slice of a cluster snapshot.
	ObsNodeSnapshot = obs.NodeSnapshot
	// ObsReport is one worker's periodic observability report.
	ObsReport = obs.Report
)

// NewObsClusterCollector returns a cluster collector whose local node is set
// (nil for a detached aggregator); serve it with ServeObs, and on a
// coordinator also feed it to DistConfig.Cluster.
func NewObsClusterCollector(set *ObsSet) *ObsClusterCollector {
	return obs.NewClusterCollector(set)
}

// NewObsSet returns an empty instrument bundle; pass it as
// PipelineConfig.Obs and serve it through NewObsClusterCollector.
func NewObsSet() *ObsSet { return obs.NewSet() }

// ObsHandler returns the HTTP mux serving the local set (/metrics in
// Prometheus text, /metrics.json, /journal, /trace.json), the cluster view
// (/cluster/metrics, /cluster/metrics.json, /cluster/trace.json) and
// /debug/pprof. Every request reads a fresh snapshot.
func ObsHandler(cc *ObsClusterCollector) http.Handler { return obs.Handler(cc) }

// ServeObs binds addr and serves ObsHandler(cc) in the background; close the
// returned server to stop.
func ServeObs(addr string, cc *ObsClusterCollector) (*http.Server, error) {
	return obs.Serve(addr, cc)
}

// WriteObsTrace writes set's spans and journal as a Chrome trace-event JSON
// document (load it at chrome://tracing or https://ui.perfetto.dev).
func WriteObsTrace(w io.Writer, set *ObsSet) error { return obs.WriteTrace(w, set) }
