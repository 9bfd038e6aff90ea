//! Optimizers and learning-rate scheduling.
//!
//! The paper trains with a fixed learning rate of `4e-4` (§5.3) and, in
//! Appendix E, adds a learning-rate scheduler for the accuracy comparison.
//! All optimizers operate directly on a [`ParamStore`]; state (Adam moments,
//! Adagrad accumulators) is keyed by parameter index and allocated lazily.

use xparallel::PoolHandle;

use crate::{ParamId, ParamStore, Sweep, Tensor};

/// A first-order optimizer over a [`ParamStore`].
///
/// Implementors read accumulated gradients and update parameter values in
/// place; [`step`](Optimizer::step) does **not** zero gradients — call
/// [`ParamStore::zero_grads`] per batch, as PyTorch does.
///
/// # Touched-row contract
///
/// A step is one [`ParamStore::sweep`] (or [`ParamStore::sweep_serial`],
/// for bodies with state of their own) per parameter: the body gets an
/// absolute row index, that row of the value and a view of the gradient
/// (every row by absolute index, `+0.0` for a row the step did not touch),
/// and the store decides which rows that is — listed, all, or the cache
/// slots of a paged table — and records them dirty for the epoch's
/// renormalization. Optimizers whose update is a fixed point on zero
/// gradients (`SGD`: `x + (−lr · 0) = x`; `Adagrad`: the accumulator and
/// value are both unchanged by `g = 0`, bit for bit under IEEE-754) sweep
/// [`Sweep::Values`], the touched rows, making the step `O(batch · d)`
/// instead of `O(N · d)`; state they keep per row is addressed by the
/// absolute index. `Adam` is **not** such a fixed point — its moments decay
/// (`m ← β₁m`) even when `g = 0` — so it sweeps [`Sweep::AllValues`]; see
/// [`Adam`].
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update using the gradients currently in `store`.
    fn step(&mut self, store: &mut ParamStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedulers).
    fn set_learning_rate(&mut self, lr: f32);

    /// Re-targets pool-dispatched updates onto an explicit handle. Default:
    /// no-op (serial optimizers ignore it). Results are bit-identical at
    /// any handle width either way — the knob trades wall-clock only.
    fn set_pool(&mut self, pool: &PoolHandle) {
        let _ = pool;
    }
}

/// Plain stochastic gradient descent: `p ← p − lr · g`.
///
/// The update is elementwise, so it is sharded over parameter rows on the
/// optimizer's [`PoolHandle`] (see [`Sgd::with_pool`]); results are
/// bit-identical at any pool width. This is the paper's optimizer-step
/// phase (Table 1), parallelized.
///
/// # Examples
///
/// ```
/// use tensor::optim::{Optimizer, Sgd};
/// use tensor::{ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let p = store.add_param("w", Tensor::full(1, 1, 1.0));
/// store.grad_mut(p)[0] = 0.5;
/// Sgd::new(0.1).step(&mut store);
/// assert!((store.value(p).get(0, 0) - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    pool: PoolHandle,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`, stepping on the global pool.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            pool: PoolHandle::global(),
        }
    }

    /// Dispatches parameter updates on an explicit pool handle (sequential
    /// inside data-parallel workers; pinned widths for determinism audits).
    #[must_use]
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        let lr = self.lr;
        for id in (0..store.len()).map(ParamId) {
            // Untouched rows hold exact +0.0 gradients and
            // `x + (−lr · 0.0) = x` bit for bit, so sweeping only the
            // touched rows reproduces the all-rows sweep exactly.
            store.sweep(id, Sweep::Values, &self.pool, 64, |r, value, grads| {
                for (x, g) in value.iter_mut().zip(grads.row(r)) {
                    *x += -lr * *g;
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn set_pool(&mut self, pool: &PoolHandle) {
        self.pool = pool.clone();
    }
}

/// Adagrad: per-coordinate adaptive learning rates.
///
/// Like [`Sgd`], the update is a bitwise fixed point on zero gradients
/// (`a + 0·0 = a`, `v − lr·0/(√a + ε) = v`), so the step walks only the
/// touched rows of each parameter and stays bit-identical to a dense sweep.
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    eps: f32,
    accum: Vec<Option<Tensor>>,
}

impl Adagrad {
    /// Creates Adagrad with learning rate `lr` and stability epsilon `1e-10`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            eps: 1e-10,
            accum: Vec::new(),
        }
    }
}

/// Borrows lazily-allocated optimizer state for one parameter, re-allocating
/// (and thereby resetting) it when its shape no longer matches the value —
/// the guard that keeps state keyed by dense [`crate::ParamId`] index valid
/// when parameters are registered after the optimizer's first `step`.
fn validated_state<T>(
    slot: &mut Option<T>,
    shape: (usize, usize),
    shape_of: impl Fn(&T) -> (usize, usize),
    fresh: impl FnOnce() -> T,
) -> &mut T {
    let stale = slot.as_ref().is_some_and(|s| shape_of(s) != shape);
    if stale {
        *slot = None;
    }
    slot.get_or_insert_with(fresh)
}

impl Optimizer for Adagrad {
    fn step(&mut self, store: &mut ParamStore) {
        let (lr, eps) = (self.lr, self.eps);
        self.accum.resize_with(store.len(), || None);
        for id in (0..store.len()).map(ParamId) {
            // The accumulator is row-addressed `N × d` state — exactly what
            // paging a table out is meant not to keep in RAM.
            assert!(
                !store.is_paged(id),
                "Adagrad does not support paged parameters; use SGD with --store disk"
            );
            let (rows, cols) = store.param_shape(id);
            let acc = validated_state(
                &mut self.accum[id.index()],
                (rows, cols),
                Tensor::shape,
                || Tensor::zeros(rows, cols),
            );
            store.sweep_serial(id, Sweep::Values, |r, value, grads| {
                for ((x, a), g) in value.iter_mut().zip(acc.row_mut(r)).zip(grads.row(r)) {
                    *a += g * g;
                    *x -= lr * g / (a.sqrt() + eps);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// **A sweep over all rows:** Adam's moments decay on every step
/// (`m ← β₁·m`, `v ← β₂·v`) even where the gradient is zero, so a
/// zero-gradient row is *not* a fixed point — skipping untouched rows would
/// change results (the "dense Adam vs sparse Adam" semantics gap PyTorch
/// exposes as `SparseAdam`). This implementation keeps the reference
/// dense-Adam semantics and therefore ignores the touched-row sets: its step
/// visits every row, `O(N · d)` regardless of batch sparsity, and keeps two
/// `N × d` moment tables. The gradient it reads is not a table: an untouched
/// row reads the store's shared zero row, so the sweep costs the moments and
/// the values, never a full gradient. Use [`Sgd`] or [`Adagrad`] when the
/// touched-row fast path matters.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Creates Adam with the standard hyperparameters `β₁=0.9, β₂=0.999`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        self.moments.resize_with(store.len(), || None);
        for id in (0..store.len()).map(ParamId) {
            // Adam sweeps every row (moments decay everywhere), which is
            // exactly what paging out cold rows forbids.
            assert!(
                !store.is_paged(id),
                "Adam does not support paged parameters; use SGD with --store disk"
            );
            let (rows, cols) = store.param_shape(id);
            let (m, v) = validated_state(
                &mut self.moments[id.index()],
                (rows, cols),
                |(m, _)| m.shape(),
                || (Tensor::zeros(rows, cols), Tensor::zeros(rows, cols)),
            );
            // Every element is rewritten (moments decay on zero grads), so
            // every row goes dirty — renormalization after an Adam epoch is
            // a full sweep, matching its deliberately dense step.
            store.sweep_serial(id, Sweep::AllValues, |r, value, grads| {
                let state = m.row_mut(r).iter_mut().zip(v.row_mut(r));
                for ((x, g), (m, s)) in value.iter_mut().zip(grads.row(r)).zip(state) {
                    *m = b1 * *m + (1.0 - b1) * g;
                    *s = b2 * *s + (1.0 - b2) * g * g;
                    let mhat = *m / bias1;
                    let vhat = *s / bias2;
                    *x -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Multiplicative step decay: every `step_size` epochs, `lr ← lr · gamma`
/// (the Appendix E scheduler).
#[derive(Debug, Clone)]
pub struct StepLr {
    base_lr: f32,
    step_size: u32,
    gamma: f32,
}

impl StepLr {
    /// Creates a scheduler decaying by `gamma` every `step_size` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `step_size == 0`.
    pub fn new(base_lr: f32, step_size: u32, gamma: f32) -> Self {
        assert!(step_size > 0, "step_size must be positive");
        Self {
            base_lr,
            step_size,
            gamma,
        }
    }

    /// Learning rate for a zero-based `epoch`.
    pub fn lr_at(&self, epoch: u32) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.step_size) as i32)
    }

    /// Applies the schedule to an optimizer for the given epoch.
    pub fn apply(&self, opt: &mut dyn Optimizer, epoch: u32) {
        opt.set_learning_rate(self.lr_at(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_store() -> (ParamStore, crate::ParamId) {
        let mut s = ParamStore::new();
        let p = s.add_param("x", Tensor::full(1, 1, 4.0));
        (s, p)
    }

    /// Minimizes f(x) = x² with analytic gradient 2x.
    fn run_steps(opt: &mut dyn Optimizer, store: &mut ParamStore, p: crate::ParamId, n: u32) {
        for _ in 0..n {
            store.zero_grads();
            let x = store.value(p).get(0, 0);
            store.grad_mut(p)[0] = 2.0 * x;
            opt.step(store);
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let (mut s, p) = quadratic_store();
        let mut opt = Sgd::new(0.1);
        run_steps(&mut opt, &mut s, p, 100);
        assert!(s.value(p).get(0, 0).abs() < 1e-3);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let (mut s, p) = quadratic_store();
        let mut opt = Adagrad::new(1.0);
        run_steps(&mut opt, &mut s, p, 300);
        assert!(s.value(p).get(0, 0).abs() < 0.05);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let (mut s, p) = quadratic_store();
        let mut opt = Adam::new(0.2);
        run_steps(&mut opt, &mut s, p, 300);
        assert!(s.value(p).get(0, 0).abs() < 0.01);
    }

    #[test]
    fn step_lr_decays() {
        let sched = StepLr::new(1.0, 10, 0.5);
        assert_eq!(sched.lr_at(0), 1.0);
        assert_eq!(sched.lr_at(9), 1.0);
        assert_eq!(sched.lr_at(10), 0.5);
        assert_eq!(sched.lr_at(25), 0.25);
        let mut opt = Sgd::new(1.0);
        sched.apply(&mut opt, 30);
        assert!((opt.learning_rate() - 0.125).abs() < 1e-7);
    }

    #[test]
    fn sgd_lr_is_settable() {
        let mut opt = Sgd::new(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    /// Registering a parameter after the first `step` must lazily allocate
    /// its state instead of indexing out of bounds, and shape-mismatched
    /// state (dense-index reuse across stores) must be re-validated.
    #[test]
    fn stateful_optimizers_survive_late_params_and_store_swaps() {
        for make in [
            (|| Box::new(Adagrad::new(0.1)) as Box<dyn Optimizer>) as fn() -> Box<dyn Optimizer>,
            || Box::new(Adam::new(0.1)),
        ] {
            let mut opt = make();
            let mut s = ParamStore::new();
            let a = s.add_param("a", Tensor::full(1, 1, 2.0));
            s.grad_mut(a)[0] = 1.0;
            opt.step(&mut s);
            // Late registration: the state vector must grow.
            let b = s.add_param("b", Tensor::full(2, 3, 1.0));
            s.grad_mut(b)[3..6].fill(0.5);
            opt.step(&mut s);
            assert!(s.value(b).get(1, 0) < 1.0, "late param must train");

            // Same optimizer against a store whose param 0 has a different
            // shape: stale state must be dropped, not indexed against.
            let mut other = ParamStore::new();
            let w = other.add_param("w", Tensor::full(4, 2, 1.0));
            other.grad_mut(w)[..2].fill(0.25);
            opt.step(&mut other);
            assert!(other.value(w).get(0, 0) < 1.0);
        }
    }

    /// State keyed on absolute rows of the full table is what paging a
    /// table out is meant not to hold: both stateful optimizers refuse a
    /// paged parameter outright (`Arm::check` refuses the arm before a
    /// trainer gets here; this is the last resort below it).
    #[test]
    fn stateful_optimizers_refuse_paged_parameters() {
        let adagrad: fn() -> Box<dyn Optimizer> = || Box::new(Adagrad::new(0.1));
        let adam: fn() -> Box<dyn Optimizer> = || Box::new(Adam::new(0.1));
        let runs = [
            (adagrad, "Adagrad does not support paged parameters"),
            (adam, "Adam does not support paged parameters"),
        ];
        for (make, message) in runs {
            let mut s = ParamStore::new();
            let p = s.add_param("p", Tensor::full(4, 2, 1.0));
            s.page_out(p, Box::new(crate::VecStorage::new(4, 2)), 2)
                .unwrap();
            let step = std::panic::AssertUnwindSafe(|| make().step(&mut s));
            let err = std::panic::catch_unwind(step).unwrap_err();
            assert!(err.downcast::<&str>().unwrap().contains(message));
        }
    }

    /// The sparse (touched-row) step must be bit-identical to the dense
    /// sweep for SGD and Adagrad — the IEEE fixed-point argument, asserted.
    #[test]
    fn sparse_step_matches_dense_bitwise() {
        let runs: [fn() -> Box<dyn Optimizer>; 2] =
            [|| Box::new(Sgd::new(0.1)), || Box::new(Adagrad::new(0.1))];
        for make in runs {
            let mut dense_store = ParamStore::new();
            let mut sparse_store = ParamStore::new();
            let init = Tensor::from_rows(&[[1.0, -2.0], [0.5, 0.25], [3.0, -0.125], [0.0, 7.5]]);
            let pd = dense_store.add_param("p", init.clone());
            let ps = sparse_store.add_param("p", init);
            let mut dense_opt = make();
            let mut sparse_opt = make();
            for round in 0..3 {
                dense_store.zero_grads();
                sparse_store.zero_grads();
                let g = 0.5 + round as f32;
                // Dense store: untracked write marks everything.
                let gd = dense_store.grad_mut(pd);
                gd[2..4].fill(g);
                gd[6] = -g;
                // Sparse store: tracked write on rows {1, 3} only.
                sparse_store.touch(ps, &[1, 3]);
                sparse_store.sweep_serial(ps, Sweep::Grads, |r, row, _| match r {
                    1 => row.fill(g),
                    _ => row[0] = -g,
                });
                assert!(dense_store.touched(pd).is_dense());
                assert!(!sparse_store.touched(ps).is_dense());
                dense_opt.step(&mut dense_store);
                sparse_opt.step(&mut sparse_store);
                for (x, y) in dense_store
                    .value(pd)
                    .as_slice()
                    .iter()
                    .zip(sparse_store.value(ps).as_slice())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
                }
            }
        }
    }
}
