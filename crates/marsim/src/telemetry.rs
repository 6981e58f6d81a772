//! Per-run telemetry summaries: jobs completed per processor, dropped
//! frames, retransmits, and peak queue depths, aggregated across the
//! layers of one run and mergeable across the jobs of a sweep.
//!
//! Unlike the trace layer ([`simcore::trace`]), which records *events*,
//! this module records *totals* — the numbers a runner report can print
//! in one line per sweep. Everything here is derived from deterministic
//! simulation state, so merged summaries are bit-identical across thread
//! counts (merging happens in job-index order).

use edgelink::ClusterSim;

/// Completion and queueing totals for one simulated processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorTelemetry {
    /// Processor name from the SoC topology (e.g. `"cpu"`, `"gpu"`).
    pub name: String,
    /// Stage executions finished on this processor.
    pub completed: u64,
    /// Deepest FIFO backlog observed (0 for PS processors).
    pub peak_queue: usize,
}

/// The per-run summary block: per-processor totals plus app- and
/// edge-level drop/retransmit counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Per-processor totals, in topology order.
    pub processors: Vec<ProcessorTelemetry>,
    /// Render frames completed.
    pub frames_rendered: u64,
    /// Render release points skipped because the frame pipeline was full
    /// (dropped frames).
    pub frames_skipped: u64,
    /// Edge-server admission rejections across every measurement window.
    pub edge_rejected: u64,
    /// Wireless retransmissions across every measurement window.
    pub edge_retransmits: u64,
    /// Deepest edge-server admission queue observed.
    pub edge_peak_queue: usize,
    /// BO `suggest` calls issued by the run's HBO controller(s) — the
    /// optimizer-side cost counter the amortized control plane exists to
    /// shrink.
    pub bo_suggests: u64,
    /// Warm-start cache hits (sessions seeded from a cached converged
    /// configuration).
    pub warm_hits: u64,
    /// Warm-start cache misses (sessions that ran cold).
    pub warm_misses: u64,
    /// Cluster requests dropped after exhausting admission retries —
    /// the load a saturated fleet shed.
    pub cluster_dropped: u64,
    /// Mid-session cell handovers on the shared medium (0 with private
    /// radios).
    pub cluster_handovers: u64,
    /// Shared-medium allocation re-solves (water-filling passes) — the
    /// radio control-plane cost driver.
    pub medium_reallocs: u64,
}

impl TelemetrySummary {
    /// The cluster totals of one [`ClusterSim`] run: rejections,
    /// retransmits, the deepest admission queue, drops, handovers and
    /// medium re-solves (no on-device processors). Every caller that turns
    /// a cluster run into telemetry reads it through here.
    pub(crate) fn of_cluster(sim: &ClusterSim) -> Self {
        let m = sim.metrics();
        TelemetrySummary {
            edge_rejected: m.reject_events,
            edge_retransmits: m.retransmits,
            edge_peak_queue: sim.peak_queue(),
            cluster_dropped: m.dropped,
            cluster_handovers: sim.handovers(),
            medium_reallocs: sim.medium_reallocs(),
            ..TelemetrySummary::default()
        }
    }

    /// The deepest queue observed anywhere: SoC FIFO backlogs and the
    /// edge admission queue.
    pub(crate) fn max_queue_depth(&self) -> usize {
        self.processors
            .iter()
            .map(|p| p.peak_queue)
            .max()
            .unwrap_or(0)
            .max(self.edge_peak_queue)
    }

    /// Folds another run's summary into this one: completion counters
    /// add, peak depths take the maximum. Processors are matched by name
    /// (jobs from different scenarios may have different topologies);
    /// unmatched processors are appended, so merge order only affects
    /// the ordering of processors never seen before — with a homogeneous
    /// job list the result is order-independent.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        for p in &other.processors {
            match self.processors.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.completed += p.completed;
                    q.peak_queue = q.peak_queue.max(p.peak_queue);
                }
                None => self.processors.push(p.clone()),
            }
        }
        self.frames_rendered += other.frames_rendered;
        self.frames_skipped += other.frames_skipped;
        self.edge_rejected += other.edge_rejected;
        self.edge_retransmits += other.edge_retransmits;
        self.edge_peak_queue = self.edge_peak_queue.max(other.edge_peak_queue);
        self.bo_suggests += other.bo_suggests;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.cluster_dropped += other.cluster_dropped;
        self.cluster_handovers += other.cluster_handovers;
        self.medium_reallocs += other.medium_reallocs;
    }

    /// Renders the summary as one JSON object (hand-rolled; hermetic
    /// build) for embedding in a runner report line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"processors\":[");
        for (i, p) in self.processors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"completed\":{},\"peak_queue\":{}}}",
                p.name, p.completed, p.peak_queue
            ));
        }
        out.push_str(&format!(
            "],\"frames_rendered\":{},\"frames_skipped\":{},\"edge_rejected\":{},\
             \"edge_retransmits\":{},\"edge_peak_queue\":{},\"bo_suggests\":{},\
             \"warm_hits\":{},\"warm_misses\":{},\"cluster_dropped\":{},\
             \"cluster_handovers\":{},\"medium_reallocs\":{},\"max_queue_depth\":{}}}",
            self.frames_rendered,
            self.frames_skipped,
            self.edge_rejected,
            self.edge_retransmits,
            self.edge_peak_queue,
            self.bo_suggests,
            self.warm_hits,
            self.warm_misses,
            self.cluster_dropped,
            self.cluster_handovers,
            self.medium_reallocs,
            self.max_queue_depth()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(completed: u64, peak: usize) -> TelemetrySummary {
        TelemetrySummary {
            processors: vec![
                ProcessorTelemetry {
                    name: "cpu".to_owned(),
                    completed,
                    peak_queue: peak,
                },
                ProcessorTelemetry {
                    name: "gpu".to_owned(),
                    completed: completed * 2,
                    peak_queue: 0,
                },
            ],
            frames_rendered: 100,
            frames_skipped: 3,
            edge_rejected: 1,
            edge_retransmits: 5,
            edge_peak_queue: 2,
            bo_suggests: 20,
            warm_hits: 1,
            warm_misses: 2,
            cluster_dropped: 4,
            cluster_handovers: 6,
            medium_reallocs: 50,
        }
    }

    #[test]
    fn merge_adds_counters_and_maxes_depths() {
        let mut a = sample(10, 4);
        a.merge(&sample(7, 9));
        assert_eq!(a.processors[0].completed, 17);
        assert_eq!(a.processors[0].peak_queue, 9);
        assert_eq!(a.processors[1].completed, 34);
        assert_eq!(a.frames_rendered, 200);
        assert_eq!(a.frames_skipped, 6);
        assert_eq!(a.edge_rejected, 2);
        assert_eq!(a.edge_retransmits, 10);
        assert_eq!(a.edge_peak_queue, 2);
        assert_eq!(a.bo_suggests, 40);
        assert_eq!(a.warm_hits, 2);
        assert_eq!(a.warm_misses, 4);
        assert_eq!(a.cluster_dropped, 8);
        assert_eq!(a.cluster_handovers, 12);
        assert_eq!(a.medium_reallocs, 100);
        assert_eq!(a.max_queue_depth(), 9);
    }

    #[test]
    fn merge_appends_unknown_processors() {
        let mut a = sample(1, 1);
        let mut b = sample(2, 2);
        b.processors[0].name = "npu".to_owned();
        a.merge(&b);
        assert_eq!(a.processors.len(), 3);
        assert_eq!(a.processors[2].name, "npu");
    }

    #[test]
    fn json_is_valid_and_carries_the_totals() {
        let s = sample(10, 4);
        let parsed = simcore::trace::parse_json(&s.to_json()).expect("valid JSON");
        let procs = parsed.get("processors").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(procs.len(), 2);
        assert_eq!(
            parsed
                .get("max_queue_depth")
                .and_then(|v| v.as_num())
                .unwrap(),
            4.0
        );
        assert_eq!(
            parsed.get("bo_suggests").and_then(|v| v.as_num()).unwrap(),
            20.0
        );
        assert_eq!(
            parsed.get("warm_hits").and_then(|v| v.as_num()).unwrap(),
            1.0
        );
        assert_eq!(
            parsed
                .get("cluster_dropped")
                .and_then(|v| v.as_num())
                .unwrap(),
            4.0
        );
        assert_eq!(
            parsed
                .get("cluster_handovers")
                .and_then(|v| v.as_num())
                .unwrap(),
            6.0
        );
        assert_eq!(
            parsed
                .get("medium_reallocs")
                .and_then(|v| v.as_num())
                .unwrap(),
            50.0
        );
    }
}
