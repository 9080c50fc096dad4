package obs

// Supervision metric names: the run-supervision layer's counters,
// published by the experiment scheduler (internal/study) so that a
// sweep's resilience behaviour — retries taken, workers crashed and
// recovered, runs cancelled, checkpoint traffic — is observable through
// the same registry as everything else.  Declared here so exporters,
// dashboards and tests share one spelling.
const (
	// MetricSchedRetries counts run attempts re-executed after a
	// transient failure.
	MetricSchedRetries = "tquad_sched_retries_total"
	// MetricSchedPanics counts worker panics recovered into per-config
	// failures.
	MetricSchedPanics = "tquad_sched_worker_panics_total"
	// MetricSchedCancels counts runs abandoned because the sweep context
	// was cancelled or timed out.
	MetricSchedCancels = "tquad_sched_cancelled_total"
	// MetricSchedFailures counts runs that exhausted their retries (or
	// failed permanently) and were reported to the caller.
	MetricSchedFailures = "tquad_sched_runs_failed_total"
	// MetricSchedCheckpointHits counts guest recordings satisfied from an
	// existing trace — a checkpoint journal's or an adopted trace source
	// (tquad -replay) — instead of a fresh execution.
	MetricSchedCheckpointHits = "tquad_sched_checkpoint_hits_total"
	// MetricSchedCheckpointSaves counts recordings persisted into a
	// checkpoint journal or a trace sink (tquad -record).
	MetricSchedCheckpointSaves = "tquad_sched_checkpoint_saves_total"
	// MetricSchedStalled counts runs flagged by the live stall detector:
	// started but heartbeat-silent for longer than the stall window.
	MetricSchedStalled = "tquad_sched_stalled_total"
	// MetricSchedRerecords counts recorded traces found corrupt at replay
	// time and re-recorded by re-executing the guest.
	MetricSchedRerecords = "tquad_sched_rerecords_total"
)

// Trace-integrity metric names, published by salvage replays
// (internal/etrace) so damaged-trace recoveries are visible on the same
// dashboards as the supervision counters.
const (
	// MetricEtraceCRCErrors counts trace chunks whose payload checksum
	// failed during a salvage replay.
	MetricEtraceCRCErrors = "tquad_etrace_crc_errors_total"
	// MetricEtraceChunksSalvaged counts trace chunks skipped whole or in
	// part by a salvage replay.
	MetricEtraceChunksSalvaged = "tquad_etrace_chunks_salvaged_total"
)

// Supervision bundles the supervision counters resolved against one
// registry.  A nil registry yields nil counters whose methods are
// no-ops, preserving the package's zero-cost-when-disabled contract.
type Supervision struct {
	Retries         *Counter
	Panics          *Counter
	Cancels         *Counter
	Failures        *Counter
	CheckpointHits  *Counter
	CheckpointSaves *Counter
}

// SupervisionCounters resolves the supervision counter set in r.
func SupervisionCounters(r *Registry) Supervision {
	return Supervision{
		Retries:         r.Counter(MetricSchedRetries),
		Panics:          r.Counter(MetricSchedPanics),
		Cancels:         r.Counter(MetricSchedCancels),
		Failures:        r.Counter(MetricSchedFailures),
		CheckpointHits:  r.Counter(MetricSchedCheckpointHits),
		CheckpointSaves: r.Counter(MetricSchedCheckpointSaves),
	}
}
