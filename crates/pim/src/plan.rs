//! Execution plans: the contract between schedulers and the simulator.
//!
//! A scheduler (baseline SPARTA or Para-CONV) emits an
//! [`ExecutionPlan`] — an assignment of every task instance `V_i^ℓ` to
//! a processing engine and time window, plus every
//! intermediate-processing-result transfer `I_{i,j}^ℓ` with its chosen
//! placement. Para-CONV's software-pipelined plans are periodic and
//! store one kernel's worth of iterations plus the rule that repeats
//! them; SPARTA's repeat one batch and store a partial last batch as a
//! tail; hand-built plans list every instance. The simulator
//! in [`crate::simulate`] replays the plan on the architecture model
//! and validates it.

use core::fmt;
use core::ops::Range;

use paraconv_graph::{EdgeId, NodeId, Placement};

/// Identifier of a processing engine in the PE array.
///
/// # Examples
///
/// ```
/// use paraconv_pim::PeId;
///
/// let pe = PeId::new(3);
/// assert_eq!(pe.index(), 3);
/// assert_eq!(pe.to_string(), "PE3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct PeId(u32);

impl PeId {
    /// Creates a PE ID from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        PeId(index)
    }

    /// Returns the dense index of this PE.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// One scheduled task instance `V_i^ℓ`: operation `node` of iteration
/// `iteration` runs on `pe` during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannedTask {
    /// The operation being executed.
    pub node: NodeId,
    /// Logical iteration (1-based, as in the paper's `ℓ ≥ 1`).
    pub iteration: u64,
    /// The processing engine the instance runs on.
    pub pe: PeId,
    /// Absolute start time in time units.
    pub start: u64,
    /// Execution time `c_i` in time units.
    pub duration: u64,
}

impl PlannedTask {
    /// Returns the finish time `start + duration`.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.start + self.duration
    }
}

/// One scheduled IPR transfer `I_{i,j}^ℓ`: the data of edge `edge`
/// produced in iteration `iteration` moves (from its placement) to the
/// consumer's PE during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannedTransfer {
    /// The intermediate processing result being moved.
    pub edge: EdgeId,
    /// Logical iteration of the *producing* task instance.
    pub iteration: u64,
    /// Where the IPR was held between production and consumption.
    pub placement: Placement,
    /// Absolute start time of the transfer.
    pub start: u64,
    /// Transfer latency under the chosen placement.
    pub duration: u64,
    /// Destination processing engine (the consumer's PE).
    pub dst_pe: PeId,
}

impl PlannedTransfer {
    /// Returns the completion time `start + duration`.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.start + self.duration
    }
}

/// A complete execution plan for `iterations` iterations of a task
/// graph on a PE array: a block of whole iterations plus, for
/// software-pipelined plans, the rule that repeats it.
///
/// An explicit plan — [`new`](Self::new) plus
/// [`push_task`](Self::push_task) / [`push_transfer`](Self::push_transfer)
/// — is one block holding every instance, in any order. A periodic
/// plan — [`repeat`](Self::repeat) — holds only iterations `1..=u`;
/// iteration `ℓ + u` is iteration `ℓ` shifted `shift` time units
/// later, so the plan is O(u) in memory whatever its iteration count.
/// [`append`](Self::append) stores a tail of explicit iterations
/// after the repeated ones, for a plan whose last iterations break
/// the period. [`tasks`](Self::tasks) and [`transfers`](Self::transfers) expand
/// either form on demand in iteration-major order, so every consumer
/// sees the same instances.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ExecutionPlan {
    tasks: Vec<PlannedTask>,
    transfers: Vec<PlannedTransfer>,
    iterations: u64,
    repeat: Option<Repeat>,
}

/// The repeat rule of a periodic [`ExecutionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct Repeat {
    /// Iterations per block (the kernel unroll factor `u`).
    pub(crate) stride: u64,
    /// Time shift between consecutive blocks (the kernel period `p`).
    pub(crate) shift: u64,
    /// The last repeated iteration; the stored tail holds the rest.
    pub(crate) until: u64,
}

impl ExecutionPlan {
    /// Creates an empty explicit plan covering the given number of
    /// iterations.
    #[must_use]
    pub fn new(iterations: u64) -> Self {
        ExecutionPlan {
            tasks: Vec::new(),
            transfers: Vec::new(),
            iterations,
            repeat: None,
        }
    }

    /// Appends a task instance to the block.
    pub fn push_task(&mut self, task: PlannedTask) {
        self.tasks.push(task);
    }

    /// Appends an IPR transfer to the block.
    pub fn push_transfer(&mut self, transfer: PlannedTransfer) {
        self.transfers.push(transfer);
    }

    /// Turns this explicit plan of `u = self.iterations()` iterations
    /// into a periodic plan of `iterations` iterations: iteration
    /// `ℓ + u` repeats iteration `ℓ` shifted `shift` time units later.
    /// `iterations == u` returns the plan unchanged. Returns `None` if
    /// the expansion's instance count overflows `usize` or a finish
    /// time overflows `u64`; neither check allocates per iteration.
    ///
    /// # Panics
    ///
    /// Unless the plan is explicit, `u ≥ 1`, `iterations ≥ u`, and its
    /// tasks and transfers each list iterations `1..=u` in order with
    /// the same number of instances per iteration (the order is
    /// checked in debug builds only).
    #[must_use]
    pub fn repeat(mut self, iterations: u64, shift: u64) -> Option<Self> {
        let stride = self.iterations;
        assert!(
            self.repeat.is_none() && stride >= 1 && iterations >= stride,
            "only an explicit block of u ≥ 1 iterations repeats to at least u"
        );
        if iterations == stride {
            return Some(self);
        }
        for len in [self.tasks.len(), self.transfers.len()] {
            assert_eq!(len as u64 % stride, 0, "unequal instances per iteration");
            usize::try_from(iterations)
                .ok()?
                .checked_mul(len / stride as usize)?;
        }
        debug_assert!(
            is_block(&self.tasks, stride) && is_block(&self.transfers, stride),
            "block is not iteration-major"
        );
        self.iterations = iterations;
        self.repeat = Some(Repeat {
            stride,
            shift,
            until: iterations,
        });
        self.checked_makespan()?;
        Some(self)
    }

    /// Appends `tail`, an explicit plan of the next `tail.iterations()`
    /// iterations, after this plan's instances. A periodic plan keeps
    /// its repeat rule and stores the tail after its block.
    ///
    /// # Panics
    ///
    /// If `tail` is periodic, or the iteration count overflows `u64`.
    pub fn append(&mut self, tail: ExecutionPlan) {
        assert!(tail.repeat.is_none(), "only an explicit plan is appended");
        debug_assert!(
            tail.tasks
                .iter()
                .map(|t| t.iteration)
                .chain(tail.transfers.iter().map(|x| x.iteration))
                .all(|i| i > self.iterations),
            "the tail's iterations follow the plan's"
        );
        self.iterations = self
            .iterations
            .checked_add(tail.iterations)
            // lint: allow(no-unwrap) — documented panic, as for a Vec's capacity
            .expect("iteration count overflows u64");
        self.tasks.extend(tail.tasks);
        self.transfers.extend(tail.transfers);
    }

    /// Expands every task instance, iteration-major.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = PlannedTask> + '_ {
        self.expand(&self.tasks)
    }

    /// Expands every IPR transfer, iteration-major.
    pub fn transfers(&self) -> impl ExactSizeIterator<Item = PlannedTransfer> + '_ {
        self.expand(&self.transfers)
    }

    /// Number of logical iterations the plan covers.
    #[must_use]
    pub const fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The plan's makespan: the latest finish over all tasks and
    /// transfers (0 for an empty plan).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.checked_makespan().unwrap_or(u64::MAX)
    }

    /// Looks up the instance of `node` in `iteration`, if planned.
    #[must_use]
    pub fn find_task(&self, node: NodeId, iteration: u64) -> Option<PlannedTask> {
        self.tasks()
            .find(|t| t.node == node && t.iteration == iteration)
    }

    /// Looks up the transfer of `edge` produced in `iteration`, if
    /// planned.
    #[must_use]
    pub fn find_transfer(&self, edge: EdgeId, iteration: u64) -> Option<PlannedTransfer> {
        self.transfers()
            .find(|t| t.edge == edge && t.iteration == iteration)
    }

    /// The stored instances: every instance of an explicit plan, or
    /// the block of iterations `1..=u` then the tail of a periodic one.
    pub(crate) fn stored(&self) -> (&[PlannedTask], &[PlannedTransfer]) {
        (&self.tasks, &self.transfers)
    }

    /// The iterations whose instances are stored, ascending: all of an
    /// explicit plan's, or a periodic plan's block and tail.
    pub(crate) fn stored_iterations(&self) -> impl DoubleEndedIterator<Item = u64> {
        let (block, until) = self
            .repeat
            .map_or((self.iterations, self.iterations), |r| (r.stride, r.until));
        (1..=block).chain((until..self.iterations).map(|i| i + 1))
    }

    /// Iterations replayed as shifted copies of the block.
    pub(crate) fn repeated_iterations(&self) -> u64 {
        self.repeat.map_or(0, |r| r.until - r.stride)
    }

    /// A stored list's instances as runs, in iteration-major order:
    /// `(stored range, iteration, shift)`. An explicit plan is one run
    /// of the whole list with its own iterations (`None`); a periodic
    /// plan has one run per repeated iteration `ℓ`, copying block
    /// iteration `(ℓ − 1) mod u` renumbered to `ℓ` and moved
    /// `⌊(ℓ − 1) / u⌋` shifts later, then one run of its tail.
    pub(crate) fn runs<T: Instance>(
        &self,
        list: &[T],
    ) -> impl Iterator<Item = (Range<usize>, Option<u64>, u64)> {
        let (r, block_len) = self.layout(list);
        let (stride, shift) = (r.stride, r.shift);
        let per = block_len / stride as usize;
        let renumber = self.repeat.is_some();
        (0..r.until)
            .map(move |l0| {
                let first = (l0 % stride) as usize * per;
                (
                    first..first + per,
                    renumber.then_some(l0 + 1),
                    l0 / stride * shift,
                )
            })
            .chain((block_len < list.len()).then_some((block_len..list.len(), None, 0)))
    }

    /// The runs past the block — a periodic plan's repeated iterations
    /// — as `(stored range, shift)`. Empty for an explicit plan.
    pub(crate) fn repeats<T: Instance>(
        &self,
        list: &[T],
    ) -> impl Iterator<Item = (Range<usize>, u64)> {
        let block_runs = self.repeat.map_or(1, |r| r.stride as usize);
        self.runs(list)
            .skip(block_runs)
            .take(self.repeated_iterations() as usize)
            .map(|(range, _, shift)| (range, shift))
    }

    /// Expands one stored list along [`runs`](Self::runs).
    fn expand<'a, T: Instance>(&'a self, list: &'a [T]) -> impl ExactSizeIterator<Item = T> + 'a {
        let (r, block_len) = self.layout(list);
        let remaining = block_len / r.stride as usize * r.until as usize + list.len() - block_len;
        let inner = self.runs(list).flat_map(move |(range, iteration, shift)| {
            list[range]
                .iter()
                .map(move |t| t.repeated(iteration, shift))
        });
        Counted { inner, remaining }
    }

    /// The repeat rule — one unshifted run for an explicit plan — and
    /// how many of `list`'s stored instances form the block.
    fn layout<T: Instance>(&self, list: &[T]) -> (Repeat, usize) {
        match self.repeat {
            None => (
                Repeat {
                    stride: 1,
                    shift: 0,
                    until: 1,
                },
                list.len(),
            ),
            Some(r) => (r, list.partition_point(|t| t.timing().0 <= r.stride)),
        }
    }

    /// The latest finish, `None` on `u64` overflow. A block instance
    /// of iteration `i` last recurs `⌊(until − i) / u⌋` shifts later,
    /// so one pass over the stored instances bounds the whole
    /// expansion.
    fn checked_makespan(&self) -> Option<u64> {
        fn latest<T: Instance>(plan: &ExecutionPlan, block: &[T]) -> Option<u64> {
            block.iter().try_fold(0, |latest, t| {
                let (iteration, start, duration) = t.timing();
                // Tail instances (past `until`) are not repeated.
                let shift = plan.repeat.map_or(Some(0), |r| {
                    r.until
                        .checked_sub(iteration)
                        .map_or(Some(0), |left| (left / r.stride).checked_mul(r.shift))
                })?;
                Some(latest.max(start.checked_add(duration)?.checked_add(shift)?))
            })
        }
        Some(latest(self, &self.tasks)?.max(latest(self, &self.transfers)?))
    }
}

/// What the periodic expansion needs of a planned instance.
pub(crate) trait Instance: Copy {
    /// `(iteration, start, duration)`.
    fn timing(&self) -> (u64, u64, u64);
    /// This instance moved `shift` later and, if given, renumbered to
    /// `iteration`.
    fn repeated(self, iteration: Option<u64>, shift: u64) -> Self;
}

impl Instance for PlannedTask {
    fn timing(&self) -> (u64, u64, u64) {
        (self.iteration, self.start, self.duration)
    }

    fn repeated(self, iteration: Option<u64>, shift: u64) -> Self {
        PlannedTask {
            iteration: iteration.unwrap_or(self.iteration),
            start: self.start + shift,
            ..self
        }
    }
}

impl Instance for PlannedTransfer {
    fn timing(&self) -> (u64, u64, u64) {
        (self.iteration, self.start, self.duration)
    }

    fn repeated(self, iteration: Option<u64>, shift: u64) -> Self {
        PlannedTransfer {
            iteration: iteration.unwrap_or(self.iteration),
            start: self.start + shift,
            ..self
        }
    }
}

/// An iterator that knows how many items it has left: the expansion's
/// instance count, which `FlatMap` cannot report.
struct Counted<I> {
    inner: I,
    remaining: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// Whether `block` lists iterations `1..=stride` in order with the
/// same instance count each.
fn is_block<T: Instance>(block: &[T], stride: u64) -> bool {
    let per = block.len() / stride as usize;
    block
        .iter()
        .enumerate()
        .all(|(k, t)| t.timing().0 == (k / per) as u64 + 1)
}

impl PartialEq for ExecutionPlan {
    /// Plans are equal when they cover the same iterations with the
    /// same instances in the same order, whichever form stores them.
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.tasks().eq(other.tasks())
            && self.transfers().eq(other.transfers())
    }
}

impl Eq for ExecutionPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_of_empty_plan_is_zero() {
        assert_eq!(ExecutionPlan::new(1).makespan(), 0);
    }

    #[test]
    fn makespan_covers_tasks_and_transfers() {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(0),
            start: 0,
            duration: 3,
        });
        plan.push_transfer(PlannedTransfer {
            edge: EdgeId::new(0),
            iteration: 1,
            placement: Placement::Edram,
            start: 3,
            duration: 5,
            dst_pe: PeId::new(1),
        });
        assert_eq!(plan.makespan(), 8);
    }

    #[test]
    fn find_task_and_transfer() {
        let mut plan = ExecutionPlan::new(2);
        let task = PlannedTask {
            node: NodeId::new(2),
            iteration: 2,
            pe: PeId::new(1),
            start: 4,
            duration: 1,
        };
        plan.push_task(task);
        assert_eq!(plan.find_task(NodeId::new(2), 2), Some(task));
        assert_eq!(plan.find_task(NodeId::new(2), 1), None);
        assert_eq!(plan.find_transfer(EdgeId::new(0), 1), None);
    }

    /// Iterations 1..=2 of a one-task, one-transfer loop: iteration
    /// `i` runs at `10·(i − 1)` on PE `i − 1`.
    fn block() -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(2);
        for i in 1..=2u64 {
            plan.push_task(PlannedTask {
                node: NodeId::new(0),
                iteration: i,
                pe: PeId::new(i as u32 - 1),
                start: 10 * (i - 1),
                duration: 3,
            });
            plan.push_transfer(PlannedTransfer {
                edge: EdgeId::new(0),
                iteration: i,
                placement: Placement::Cache,
                start: 10 * (i - 1) + 3,
                duration: 2,
                dst_pe: PeId::new(0),
            });
        }
        plan
    }

    #[test]
    fn repeat_expands_iteration_major() {
        // Stride 2, shift 20: iteration ℓ is iteration ℓ − 2 moved 20
        // later, which here continues the 10-per-iteration cadence.
        let plan = block().repeat(5, 20).unwrap();
        assert_eq!(plan.iterations(), 5);
        let tasks: Vec<PlannedTask> = plan.tasks().collect();
        assert_eq!(tasks.len(), 5);
        for (k, t) in tasks.iter().enumerate() {
            assert_eq!(t.iteration, k as u64 + 1);
            assert_eq!(t.start, 10 * k as u64);
            assert_eq!(t.pe, PeId::new(k as u32 % 2));
        }
        let transfers: Vec<PlannedTransfer> = plan.transfers().collect();
        assert_eq!(transfers.len(), 5);
        assert_eq!(transfers[4].start, 43);
        assert_eq!(plan.makespan(), 45);
        assert_eq!(plan.find_task(NodeId::new(0), 4).unwrap().start, 30);
        // Equal to the same instances pushed one by one.
        let mut explicit = ExecutionPlan::new(5);
        for t in &tasks {
            explicit.push_task(*t);
        }
        for x in &transfers {
            explicit.push_transfer(*x);
        }
        assert_eq!(plan, explicit);
        assert_eq!(plan.makespan(), explicit.makespan());
    }

    #[test]
    fn appended_tail_follows_the_repeated_iterations() {
        // Iterations 1..=4 repeat the block; iteration 5 breaks the
        // period (PE 1, start 45) and is stored as a tail.
        let mut plan = block().repeat(4, 20).unwrap();
        let mut tail = ExecutionPlan::new(1);
        tail.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: 5,
            pe: PeId::new(1),
            start: 45,
            duration: 3,
        });
        plan.append(tail);
        assert_eq!(plan.iterations(), 5);
        let tasks: Vec<PlannedTask> = plan.tasks().collect();
        assert_eq!(tasks.len(), 5);
        assert_eq!(
            tasks.iter().map(|t| t.start).collect::<Vec<_>>(),
            [0, 10, 20, 30, 45]
        );
        assert_eq!(plan.transfers().len(), 4);
        assert_eq!(plan.makespan(), 48);
        let mut explicit = ExecutionPlan::new(5);
        tasks.iter().for_each(|t| explicit.push_task(*t));
        plan.transfers().for_each(|x| explicit.push_transfer(x));
        assert_eq!(plan, explicit);
    }

    #[test]
    fn repeat_to_the_block_length_is_the_block() {
        assert_eq!(block().repeat(2, 20).unwrap(), block());
    }

    #[test]
    #[should_panic(expected = "only an explicit block")]
    fn repeat_refuses_fewer_iterations_than_the_block() {
        let _ = block().repeat(1, 20);
    }

    #[test]
    #[should_panic(expected = "only an explicit block")]
    fn a_periodic_plan_does_not_repeat_again() {
        let _ = block().repeat(4, 20).unwrap().repeat(8, 40);
    }

    #[test]
    #[should_panic(expected = "unequal instances per iteration")]
    fn repeat_refuses_uneven_iterations() {
        let mut uneven = block();
        uneven.push_task(PlannedTask {
            node: NodeId::new(1),
            iteration: 2,
            pe: PeId::new(0),
            start: 30,
            duration: 1,
        });
        let _ = uneven.repeat(4, 20);
    }

    #[test]
    fn repeat_checks_overflow_without_expanding() {
        // Two tasks per iteration, u64::MAX iterations: the instance
        // count overflows usize even though no finish time grows.
        let mut wide = ExecutionPlan::new(1);
        for node in 0..2 {
            wide.push_task(PlannedTask {
                node: NodeId::new(node),
                iteration: 1,
                pe: PeId::new(node),
                start: 0,
                duration: 1,
            });
        }
        assert_eq!(wide.repeat(u64::MAX, 0), None);
        // 2^40 iterations fit, but a 2^30 shift pushes finishes past
        // u64::MAX.
        assert_eq!(block().repeat(1 << 40, 1 << 30), None);
        // A trillion iterations that do fit cost O(block) to build.
        let huge = block().repeat(1 << 40, 20).unwrap();
        assert_eq!(huge.tasks().len(), 1 << 40);
        assert_eq!(huge.makespan(), ((1u64 << 40) - 1) * 10 + 5);
    }

    #[test]
    fn finish_times() {
        let t = PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(0),
            start: 7,
            duration: 2,
        };
        assert_eq!(t.finish(), 9);
    }
}
