//! The seven workloads: what each is, what one repetition returns, and
//! the dispatch from a name to its code.

use crate::span::Tracer;
use crate::{cosim, engine, rc};

/// Every operation count in ISSUE 11's workload table is divided by this
/// one common factor, so that a repetition with its set-up takes well
/// under a second on the 2-CPU reference host and a fixed-length run
/// holds eight or more of them. See README.md, "Sizing".
pub const SCALE_DIVISOR: u64 = 4;

/// The paper's link, Gb/s: what `goodput_gbps` on the RC workloads is
/// printed against. Simulated, never measured.
pub const LINK_GBPS: f64 = 2.5;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RcStream1k,
    RcSmall64,
    FabricRdmaLossy,
    Rekey1024Qp,
    MeshDosSif,
    Fattree1kSerial,
    /// Run by `run` and `trace` but not listed in `BENCHMARK.json`: on a
    /// host that gives the benchmark two shared CPUs, the two-thread
    /// driver's rate spreads by a third between runs of the same code,
    /// which measures the scheduler, not the engine. The traced
    /// `fattree_1k_serial` run carries its number as `ib_sim.par2_speedup`.
    Fattree1kPar2,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::RcStream1k,
        Workload::RcSmall64,
        Workload::FabricRdmaLossy,
        Workload::Rekey1024Qp,
        Workload::MeshDosSif,
        Workload::Fattree1kSerial,
        Workload::Fattree1kPar2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RcStream1k => "rc_stream_1k",
            Workload::RcSmall64 => "rc_small_64",
            Workload::FabricRdmaLossy => "fabric_rdma_lossy",
            Workload::Rekey1024Qp => "rekey_1024qp",
            Workload::MeshDosSif => "mesh_dos_sif",
            Workload::Fattree1kSerial => "fattree_1k_serial",
            Workload::Fattree1kPar2 => "fattree_1k_par2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `ops_per_s` and the failure count are made of.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::RcStream1k | Workload::RcSmall64 => {
                "one SEND delivered once, in order, byte-equal"
            }
            Workload::FabricRdmaLossy => "one message / RDMA op completed",
            Workload::Rekey1024Qp => "one message delivered",
            Workload::MeshDosSif => "one packet generated",
            Workload::Fattree1kSerial | Workload::Fattree1kPar2 => {
                "one simulated MTU packet delivered"
            }
        }
    }

    /// The stream shape of the two RC workloads.
    pub fn rc_spec(self) -> Option<&'static rc::RcSpec> {
        match self {
            Workload::RcStream1k => Some(&rc::STREAM_1K),
            Workload::RcSmall64 => Some(&rc::SMALL_64),
            _ => None,
        }
    }

    /// Run one repetition: fresh state from `seed`, `1/size_divisor` of
    /// the workload's full operation count, warm-up included in the
    /// reported set-up time.
    pub fn repetition(self, seed: u64, size_divisor: u64, tracer: &mut Tracer) -> Repetition {
        match self {
            Workload::RcStream1k | Workload::RcSmall64 => {
                let spec = self.rc_spec().expect("both RC workloads have a spec");
                rc::repetition(spec, seed, size_divisor, tracer)
            }
            Workload::FabricRdmaLossy => cosim::fabric_repetition(seed, size_divisor, tracer),
            Workload::Rekey1024Qp => cosim::rekey_repetition(seed, size_divisor, tracer),
            Workload::MeshDosSif => engine::mesh_repetition(seed, size_divisor, tracer),
            Workload::Fattree1kSerial => {
                engine::fattree_repetition(engine::Driver::Serial, seed, size_divisor, tracer)
            }
            Workload::Fattree1kPar2 => {
                engine::fattree_repetition(engine::Driver::Par2, seed, size_divisor, tracer)
            }
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Repetition {
    /// Host seconds from the repetition's start to its first timed
    /// operation: construction, key install, input generation, warm-up.
    pub setup_s: f64,
    /// Host seconds of the timed operations.
    pub wall_s: f64,
    /// Operations attempted (fixed by the workload's size).
    pub attempted: u64,
    /// Operations that failed any correctness gate.
    pub failed: u64,
    /// Verified application payload bits delivered (goodput numerator).
    pub payload_bits: u64,
    /// Simulated-time results. They must repeat bit for bit: across the
    /// repetitions of one run, and across commits that only change speed.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer counts and simulated figures read off the workload's own
    /// reports (no extra timing; filled in every mode).
    pub layer: Vec<(&'static str, f64)>,
    /// One line per failed correctness gate.
    pub gate_failures: Vec<String>,
}

impl Repetition {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    pub fn goodput_gbps(&self) -> f64 {
        self.payload_bits as f64 / self.wall_s / 1e9
    }

    /// Record a failed gate and charge it `ops` failed operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.gate_failures.push(why);
    }

    pub fn sim_value(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}
