//! Configurations: the full input of the mapping problem.

use crate::error::ModelError;
use crate::graph::TaskGraph;
use crate::ids::{BufferRef, MemoryId, ProcessorId, TaskGraphId, TaskRef};
use crate::memory::Memory;
use crate::processor::Processor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The complete input of the joint budget/buffer computation.
///
/// A configuration corresponds to the tuple
/// `C = (Q, P, M, µ, ̺, o, ς, g)` of the paper: a set `Q` of task graphs
/// (each carrying its throughput requirement `µ`), a set `P` of processors
/// (each with replenishment interval `̺` and overhead `o`), a set `M` of
/// memories (with capacities `ς`), and the budget allocation granularity
/// `g`. The per-task and per-buffer objective weights live on the tasks and
/// buffers themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    processors: Vec<Processor>,
    memories: Vec<Memory>,
    task_graphs: Vec<TaskGraph>,
    budget_granularity: u64,
}

impl Configuration {
    /// Creates an empty configuration with unit budget granularity.
    pub fn new() -> Self {
        Self {
            processors: Vec::new(),
            memories: Vec::new(),
            task_graphs: Vec::new(),
            budget_granularity: 1,
        }
    }

    /// Sets the budget allocation granularity `g` (budgets are multiples of
    /// `g` cycles).
    ///
    /// # Panics
    ///
    /// Panics if the granularity is zero.
    pub fn set_budget_granularity(&mut self, granularity: u64) {
        assert!(granularity > 0, "budget granularity must be at least 1");
        self.budget_granularity = granularity;
    }

    /// Budget allocation granularity `g`.
    pub fn budget_granularity(&self) -> u64 {
        self.budget_granularity
    }

    /// Adds a processor, returning its identifier.
    pub fn add_processor(&mut self, processor: Processor) -> ProcessorId {
        let id = ProcessorId::new(self.processors.len());
        self.processors.push(processor);
        id
    }

    /// Adds a memory, returning its identifier.
    pub fn add_memory(&mut self, memory: Memory) -> MemoryId {
        let id = MemoryId::new(self.memories.len());
        self.memories.push(memory);
        id
    }

    /// Adds a task graph, returning its identifier.
    pub fn add_task_graph(&mut self, graph: TaskGraph) -> TaskGraphId {
        let id = TaskGraphId::new(self.task_graphs.len());
        self.task_graphs.push(graph);
        id
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.processors.len()
    }

    /// Number of memories.
    pub fn num_memories(&self) -> usize {
        self.memories.len()
    }

    /// Number of task graphs.
    pub fn num_task_graphs(&self) -> usize {
        self.task_graphs.len()
    }

    /// Total number of tasks across all task graphs.
    pub fn num_tasks(&self) -> usize {
        self.task_graphs.iter().map(TaskGraph::num_tasks).sum()
    }

    /// Total number of buffers across all task graphs.
    pub fn num_buffers(&self) -> usize {
        self.task_graphs.iter().map(TaskGraph::num_buffers).sum()
    }

    /// Access a processor.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is unknown.
    pub fn processor(&self, id: ProcessorId) -> &Processor {
        &self.processors[id.index()]
    }

    /// Access a memory.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is unknown.
    pub fn memory(&self, id: MemoryId) -> &Memory {
        &self.memories[id.index()]
    }

    /// Access a task graph.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is unknown.
    pub fn task_graph(&self, id: TaskGraphId) -> &TaskGraph {
        &self.task_graphs[id.index()]
    }

    /// Mutable access to a task graph (used by trade-off sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the identifier is unknown.
    pub fn task_graph_mut(&mut self, id: TaskGraphId) -> &mut TaskGraph {
        &mut self.task_graphs[id.index()]
    }

    /// Iterator over `(ProcessorId, &Processor)` pairs.
    pub fn processors(&self) -> impl Iterator<Item = (ProcessorId, &Processor)> {
        self.processors
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessorId::new(i), p))
    }

    /// Iterator over `(MemoryId, &Memory)` pairs.
    pub fn memories(&self) -> impl Iterator<Item = (MemoryId, &Memory)> {
        self.memories
            .iter()
            .enumerate()
            .map(|(i, m)| (MemoryId::new(i), m))
    }

    /// Iterator over `(TaskGraphId, &TaskGraph)` pairs.
    pub fn task_graphs(&self) -> impl Iterator<Item = (TaskGraphId, &TaskGraph)> {
        self.task_graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (TaskGraphId::new(i), g))
    }

    /// All tasks of the configuration (the set `W_Q` of the paper).
    pub fn all_tasks(&self) -> Vec<TaskRef> {
        let mut out = Vec::new();
        for (gid, graph) in self.task_graphs() {
            for (tid, _) in graph.tasks() {
                out.push(TaskRef::new(gid, tid));
            }
        }
        out
    }

    /// All buffers of the configuration (the set `B_Q` of the paper).
    pub fn all_buffers(&self) -> Vec<BufferRef> {
        let mut out = Vec::new();
        for (gid, graph) in self.task_graphs() {
            for (bid, _) in graph.buffers() {
                out.push(BufferRef::new(gid, bid));
            }
        }
        out
    }

    /// Tasks bound to the given processor (the set `τ(p)` of the paper).
    pub fn tasks_on_processor(&self, processor: ProcessorId) -> Vec<TaskRef> {
        self.all_tasks()
            .into_iter()
            .filter(|r| self.task_graph(r.graph).task(r.task).processor() == processor)
            .collect()
    }

    /// Buffers placed in the given memory (the set `ψ(m)` of the paper).
    pub fn buffers_in_memory(&self, memory: MemoryId) -> Vec<BufferRef> {
        self.all_buffers()
            .into_iter()
            .filter(|r| self.task_graph(r.graph).buffer(r.buffer).memory() == memory)
            .collect()
    }

    /// Validates the configuration: non-empty, consistent bindings and a
    /// basic per-task attainability check (a task that cannot reach its
    /// graph's period even with the full processor is rejected early with a
    /// precise error instead of a generic solver infeasibility).
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.task_graphs.is_empty() {
            return Err(ModelError::EmptyConfiguration);
        }
        if self.processors.is_empty() {
            return Err(ModelError::NoProcessors);
        }
        if self.budget_granularity == 0 {
            return Err(ModelError::ZeroGranularity);
        }
        for (gid, graph) in self.task_graphs() {
            graph.validate()?;
            for (tid, task) in graph.tasks() {
                if task.processor().index() >= self.processors.len() {
                    return Err(ModelError::UnknownProcessor {
                        graph: gid,
                        task: tid,
                        processor: task.processor(),
                    });
                }
                // With the full replenishment interval allocated as budget,
                // the dataflow model executes the task in exactly χ(w) per
                // firing; the self-loop of the execution actor then requires
                // χ(w) ≤ µ(T). Anything above is structurally infeasible.
                let min_period = task.wcet();
                if min_period > graph.period() {
                    return Err(ModelError::PeriodUnattainable {
                        graph: gid,
                        task: tid,
                        minimum_period: min_period,
                        required_period: graph.period(),
                    });
                }
            }
            for (bid, buffer) in graph.buffers() {
                if buffer.memory().index() >= self.memories.len() {
                    return Err(ModelError::UnknownMemory {
                        graph: gid,
                        buffer: bid,
                        memory: buffer.memory(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl Configuration {
    /// The canonical JSON form of the configuration: the compact
    /// serialisation of the full model. Field order is fixed by the struct
    /// definitions and every map in the model is ordered, so two equal
    /// configurations always produce the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration contains a non-finite float (such values
    /// never pass [`Configuration::validate`]).
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("configuration serialises to JSON")
    }

    /// A 64-bit FNV-1a fingerprint of [`Configuration::canonical_json`] —
    /// the low lane of [`Configuration::canonical_digest`], computed by
    /// streaming (no JSON string is materialised).
    pub fn canonical_fingerprint(&self) -> u64 {
        self.canonical_digest().lo
    }

    /// The 128-bit streaming [`CanonicalDigest`](crate::CanonicalDigest) of
    /// the configuration: hashes the canonical JSON byte stream without
    /// building it. The batch-solving engine derives its cache keys from
    /// this digest; the low lane equals [`Configuration::canonical_fingerprint`].
    pub fn canonical_digest(&self) -> crate::CanonicalDigest {
        crate::canonical_digest_of(self)
    }
}

/// 64-bit FNV-1a over a byte string — the hash behind
/// [`Configuration::canonical_fingerprint`], exported so callers hashing a
/// canonical JSON they already hold do not have to serialise twice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a 64-bit FNV-1a hash over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ‖ b)`, so a hash of a long prefix
/// that is already known never has to be recomputed.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl Default for Configuration {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configuration: {} task graphs, {} tasks, {} buffers, {} processors, {} memories, granularity {}",
            self.num_task_graphs(),
            self.num_tasks(),
            self.num_buffers(),
            self.num_processors(),
            self.num_memories(),
            self.budget_granularity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::ids::{BufferId, TaskId};
    use crate::task::Task;

    fn simple_configuration() -> Configuration {
        let mut c = Configuration::new();
        let p1 = c.add_processor(Processor::new("p1", 40.0));
        let p2 = c.add_processor(Processor::new("p2", 40.0));
        let m = c.add_memory(Memory::unbounded("mem"));
        let mut g = TaskGraph::new("T1", 10.0);
        let a = g.add_task(Task::new("wa", 1.0, p1));
        let b = g.add_task(Task::new("wb", 1.0, p2));
        g.add_buffer(Buffer::new("bab", a, b, m));
        c.add_task_graph(g);
        c
    }

    #[test]
    fn counts_and_accessors() {
        let c = simple_configuration();
        assert_eq!(c.num_processors(), 2);
        assert_eq!(c.num_memories(), 1);
        assert_eq!(c.num_task_graphs(), 1);
        assert_eq!(c.num_tasks(), 2);
        assert_eq!(c.num_buffers(), 1);
        assert_eq!(c.budget_granularity(), 1);
        assert_eq!(c.processor(ProcessorId::new(0)).name(), "p1");
        assert_eq!(c.memory(MemoryId::new(0)).name(), "mem");
        assert_eq!(c.task_graph(TaskGraphId::new(0)).name(), "T1");
        assert!(c.to_string().contains("1 task graphs"));
    }

    #[test]
    fn global_sets_match_paper_notation() {
        let c = simple_configuration();
        assert_eq!(c.all_tasks().len(), 2);
        assert_eq!(c.all_buffers().len(), 1);
        let on_p1 = c.tasks_on_processor(ProcessorId::new(0));
        assert_eq!(on_p1.len(), 1);
        assert_eq!(on_p1[0].task, TaskId::new(0));
        assert_eq!(c.buffers_in_memory(MemoryId::new(0)).len(), 1);
        assert!(c.buffers_in_memory(MemoryId::new(0))[0].buffer == BufferId::new(0));
    }

    #[test]
    fn validation_accepts_wellformed() {
        assert!(simple_configuration().validate().is_ok());
    }

    #[test]
    fn validation_rejects_empty_and_missing_pieces() {
        assert_eq!(
            Configuration::new().validate(),
            Err(ModelError::EmptyConfiguration)
        );

        let mut c = Configuration::new();
        let mut g = TaskGraph::new("T", 10.0);
        g.add_task(Task::new("w", 1.0, ProcessorId::new(0)));
        c.add_task_graph(g);
        assert_eq!(c.validate(), Err(ModelError::NoProcessors));
    }

    #[test]
    fn validation_rejects_unknown_processor_binding() {
        let mut c = Configuration::new();
        c.add_processor(Processor::new("p0", 40.0));
        let mut g = TaskGraph::new("T", 10.0);
        g.add_task(Task::new("w", 1.0, ProcessorId::new(3)));
        c.add_task_graph(g);
        assert!(matches!(
            c.validate(),
            Err(ModelError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn validation_rejects_unknown_memory_binding() {
        let mut c = Configuration::new();
        let p = c.add_processor(Processor::new("p0", 40.0));
        let mut g = TaskGraph::new("T", 10.0);
        let a = g.add_task(Task::new("a", 1.0, p));
        let b = g.add_task(Task::new("b", 1.0, p));
        g.add_buffer(Buffer::new("bab", a, b, MemoryId::new(0)));
        c.add_task_graph(g);
        assert!(matches!(
            c.validate(),
            Err(ModelError::UnknownMemory { .. })
        ));
    }

    #[test]
    fn validation_rejects_unattainable_period() {
        let mut c = Configuration::new();
        let p = c.add_processor(Processor::new("p0", 40.0));
        let mut g = TaskGraph::new("T", 10.0);
        // wcet 12 > period 10: even the whole processor cannot reach it.
        g.add_task(Task::new("heavy", 12.0, p));
        c.add_task_graph(g);
        assert!(matches!(
            c.validate(),
            Err(ModelError::PeriodUnattainable { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "granularity must be at least 1")]
    fn zero_granularity_panics_at_set() {
        let mut c = Configuration::new();
        c.set_budget_granularity(0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = simple_configuration();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Configuration>(&json).unwrap(), c);
    }

    #[test]
    fn canonical_fingerprint_distinguishes_configurations() {
        let a = simple_configuration();
        let b = simple_configuration();
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
        assert_eq!(a.canonical_json(), b.canonical_json());
        let mut c = simple_configuration();
        c.set_budget_granularity(2);
        assert_ne!(a.canonical_fingerprint(), c.canonical_fingerprint());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
