use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sthsl_chaos::mix64;
use sthsl_tensor::{Result, Tensor, TensorError};

use crate::tape::{NodeSpec, OpKind, TapeSpec};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position of this variable on its graph's tape. Stable across
    /// [`Graph::export_tape`], so analyzer diagnostics (`%7`) can be mapped
    /// back to live [`Var`]s.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which half of tape execution an observed op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TapePhase {
    /// The op's forward kernel just ran and its node was recorded.
    Forward,
    /// The op's backward closure just ran during [`Graph::backward`].
    Backward,
}

/// Observer notified once per executed tape op: immediately after a node is
/// recorded on the forward pass, and immediately after its backward closure
/// runs during the reverse sweep.
///
/// The trait is deliberately clock-free: this crate is a kernel crate whose
/// output must be a pure function of its inputs, so it reports only *what*
/// executed (`name`, `phase`, output payload `bytes`). An implementation
/// outside the kernel crates (e.g. `sthsl-obs`'s profiler) may timestamp the
/// notifications to attribute wall time per op.
pub trait TapeObserver {
    /// `name` is the stable [`OpKind::name`]; `bytes` is the byte size of the
    /// op's output value (forward) or of the gradient it produced (backward).
    fn on_op(&self, name: &'static str, phase: TapePhase, bytes: usize);
}

/// Backward closure: given the gradient flowing into this node's output, the
/// parents' forward values and this node's own forward value, produce the
/// gradient contribution for each parent (None = parent needs no gradient).
pub(crate) type GradFn =
    Box<dyn Fn(&Tensor, &[Rc<Tensor>], &Tensor) -> Result<Vec<Option<Tensor>>>>;

pub(crate) struct Node {
    pub value: Rc<Tensor>,
    pub parents: Vec<usize>,
    pub grad_fn: Option<GradFn>,
    /// Whether any gradient should flow into / through this node.
    pub requires_grad: bool,
    /// What the op is — kind plus shape-relevant attributes.
    pub kind: OpKind,
    /// Diagnostic name for input nodes (parameter names, data labels).
    pub label: Option<String>,
}

/// A single-use reverse-mode autodiff tape.
///
/// Create one graph per forward/backward pass. Interior mutability lets op
/// constructors take `&self`, so forward code reads like ordinary expressions.
pub struct Graph {
    pub(crate) nodes: RefCell<Vec<Node>>,
    training: bool,
    /// Seed of the dropout keys.
    seed: u64,
    /// The current sample slot and the dropout nodes recorded in it so far:
    /// the rest of the next dropout key.
    dropout_at: Cell<(u64, u64)>,
    observer: RefCell<Option<Rc<dyn TapeObserver>>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Inference-mode graph (dropout disabled).
    pub fn new() -> Self {
        Graph { training: false, ..Graph::training(0) }
    }

    /// Training-mode graph. Each dropout node keys its mask by
    /// `mix64(seed, sample slot, ordinal)`: the slot set by the last
    /// [`Graph::begin_sample`] (0 before any), and the node's place among the
    /// dropout nodes recorded since.
    pub fn training(seed: u64) -> Self {
        Graph {
            nodes: RefCell::new(Vec::with_capacity(256)),
            training: true,
            seed,
            dropout_at: Cell::new((0, 0)),
            observer: RefCell::new(None),
        }
    }

    /// Start recording sample `slot` (its place in the batch): the dropout
    /// nodes recorded from here on draw the masks they would draw on a
    /// fresh graph after the same call, whatever the graph already holds.
    pub fn begin_sample(&self, slot: u64) {
        self.dropout_at.set((slot, 0));
    }

    /// The key of the next dropout node's mask.
    pub(crate) fn next_dropout_key(&self) -> u64 {
        let (slot, ordinal) = self.dropout_at.get();
        self.dropout_at.set((slot, ordinal + 1));
        mix64(self.seed, slot, ordinal)
    }

    /// Attach a [`TapeObserver`] notified once per executed op (forward and
    /// backward). At most one observer is active; the previous one (if any)
    /// is returned.
    pub fn set_observer(&self, obs: Rc<dyn TapeObserver>) -> Option<Rc<dyn TapeObserver>> {
        self.observer.borrow_mut().replace(obs)
    }

    /// Detach and return the current observer.
    pub fn clear_observer(&self) -> Option<Rc<dyn TapeObserver>> {
        self.observer.borrow_mut().take()
    }

    fn notify(&self, name: &'static str, phase: TapePhase, bytes: usize) {
        if let Some(obs) = self.observer.borrow().as_ref() {
            obs.on_op(name, phase, bytes);
        }
    }

    /// Whether dropout and other train-only behaviours are active.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of nodes recorded so far.
    pub fn node_count(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Insert a tensor that requires gradient (a parameter leaf).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.input(OpKind::Leaf, None, value, true)
    }

    /// [`Graph::leaf`] with a diagnostic name that analysis diagnostics can
    /// report (typically the `ParamStore` name).
    pub fn named_leaf(&self, name: impl Into<String>, value: Tensor) -> Var {
        self.input(OpKind::Leaf, Some(name.into()), value, true)
    }

    /// Insert a tensor that never receives gradient (data, masks, constants).
    pub fn constant(&self, value: Tensor) -> Var {
        self.input(OpKind::Constant, None, value, false)
    }

    fn input(&self, kind: OpKind, label: Option<String>, value: Tensor, grad: bool) -> Var {
        self.push(Node {
            value: Rc::new(value),
            parents: vec![],
            grad_fn: None,
            requires_grad: grad,
            kind,
            label,
        })
    }

    /// Forward value of a variable (cheap `Rc` clone).
    ///
    /// # Panics
    /// On a `Var` from a different graph. Op constructors use this on the
    /// parents the caller just produced; external callers holding possibly
    /// stale handles should prefer [`Graph::try_value`].
    pub fn value(&self, v: Var) -> Rc<Tensor> {
        Rc::clone(&self.nodes.borrow()[v.0].value)
    }

    /// Forward value of a variable, or an error for a stale / foreign `Var`.
    pub fn try_value(&self, v: Var) -> Result<Rc<Tensor>> {
        self.nodes
            .borrow()
            .get(v.0)
            .map(|n| Rc::clone(&n.value))
            .ok_or_else(|| stale_var("try_value", v, self.node_count()))
    }

    /// Shape of a variable's forward value, or an error for a stale /
    /// foreign `Var` — pre-flight analysis must not be able to panic here.
    pub fn shape_of(&self, v: Var) -> Result<Vec<usize>> {
        self.nodes
            .borrow()
            .get(v.0)
            .map(|n| n.value.shape().to_vec())
            .ok_or_else(|| stale_var("shape_of", v, self.node_count()))
    }

    pub(crate) fn push(&self, node: Node) -> Var {
        let name = node.kind.name();
        let bytes = node.value.len() * std::mem::size_of::<f32>();
        let var = {
            let mut nodes = self.nodes.borrow_mut();
            nodes.push(node);
            Var(nodes.len() - 1)
        };
        // The forward kernel ran just before this node was recorded, so an
        // observer timestamping successive notifications sees per-op deltas.
        self.notify(name, TapePhase::Forward, bytes);
        var
    }

    /// Record an op node. `requires_grad` is inherited from any parent.
    ///
    /// In debug builds the ahead-of-time shape rule for `kind` is
    /// cross-checked against the runtime shape of `value`, so every test
    /// run certifies [`OpKind::infer_shape`] against the kernels.
    pub(crate) fn op(
        &self,
        kind: OpKind,
        value: impl Into<Rc<Tensor>>,
        parents: Vec<Var>,
        grad_fn: GradFn,
    ) -> Var {
        let value = value.into();
        let requires_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|p| nodes[p.0].requires_grad)
        };
        #[cfg(debug_assertions)]
        {
            let nodes = self.nodes.borrow();
            let pshapes: Vec<Vec<usize>> =
                parents.iter().map(|p| nodes[p.0].value.shape().to_vec()).collect();
            match kind.infer_shape(&pshapes) {
                Ok(Some(inferred)) => debug_assert_eq!(
                    inferred,
                    value.shape(),
                    "shape inference for {} disagrees with runtime (parents {pshapes:?})",
                    kind.display()
                ),
                Ok(None) => {}
                Err(e) => {
                    debug_assert!(
                        false,
                        "shape inference rejected an op the runtime accepted: {e}"
                    );
                }
            }
        }
        self.push(Node {
            value,
            parents: parents.into_iter().map(|v| v.0).collect(),
            grad_fn: if requires_grad { Some(grad_fn) } else { None },
            requires_grad,
            kind,
            label: None,
        })
    }

    /// Project the tape into an executable-free [`TapeSpec`] for static
    /// analysis: op metadata, wiring, runtime shapes and observed value
    /// ranges — no tensors, no closures.
    ///
    /// The exported `value_range` of each *input* node is the snapshot's
    /// declared range (what the data and parameters actually span at export
    /// time); on op nodes it is the runtime witness the interval pass
    /// cross-checks its predictions against.
    pub fn export_tape(&self) -> TapeSpec {
        let nodes = self.nodes.borrow();
        TapeSpec {
            nodes: nodes
                .iter()
                .map(|n| NodeSpec {
                    kind: n.kind.clone(),
                    parents: n.parents.clone(),
                    label: n.label.clone(),
                    requires_grad: n.requires_grad,
                    runtime_shape: Some(n.value.shape().to_vec()),
                    value_range: observed_range(n.value.data()),
                })
                .collect(),
        }
    }

    /// Reverse-mode sweep from `loss` (which must be a scalar) back to the
    /// leaves. Returns the full gradient table.
    pub fn backward(&self, loss: Var) -> Result<Gradients> {
        let nodes = self.nodes.borrow();
        let loss_node = nodes
            .get(loss.0)
            .ok_or_else(|| TensorError::Invalid("backward: variable not in this graph".into()))?;
        if loss_node.value.len() != 1 {
            return Err(TensorError::Invalid(format!(
                "backward: loss must be a scalar, got shape {:?}",
                loss_node.value.shape()
            )));
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Tensor::full(loss_node.value.shape(), 1.0));

        // The tape is already a topological order (parents precede children),
        // so a single reverse pass suffices.
        for id in (0..=loss.0).rev() {
            let Some(grad_out) = grads[id].take() else { continue };
            let node = &nodes[id];
            if let Some(grad_fn) = &node.grad_fn {
                let parent_vals: Vec<Rc<Tensor>> =
                    node.parents.iter().map(|&p| Rc::clone(&nodes[p].value)).collect();
                let parent_grads = grad_fn(&grad_out, &parent_vals, &node.value)?;
                self.notify(
                    node.kind.name(),
                    TapePhase::Backward,
                    grad_out.len() * std::mem::size_of::<f32>(),
                );
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (pi, pg) in node.parents.iter().zip(parent_grads) {
                    let Some(pg) = pg else { continue };
                    if !nodes[*pi].requires_grad {
                        continue;
                    }
                    match &mut grads[*pi] {
                        Some(acc) => acc.axpy(1.0, &pg)?,
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            // Keep leaf gradients; op gradients were taken and dropped.
            if node.grad_fn.is_none() && node.requires_grad {
                grads[id] = Some(grad_out);
            }
        }
        Ok(Gradients { grads })
    }
}

/// Observed `(min, max)` of a forward value for tape export. A single NaN
/// anywhere collapses the range to `(NaN, NaN)` so the analyzer sees the
/// poisoning instead of `f32::min/max` silently skipping it; empty tensors
/// have no range.
fn observed_range(data: &[f32]) -> Option<(f32, f32)> {
    if data.is_empty() {
        return None;
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in data {
        if v.is_nan() {
            return Some((f32::NAN, f32::NAN));
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

fn stale_var(op: &str, v: Var, node_count: usize) -> TensorError {
    TensorError::Invalid(format!(
        "{op}: %{} is not a variable of this graph ({node_count} nodes) — stale or foreign Var",
        v.0
    ))
}

/// Gradient table produced by [`Graph::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if any flowed there.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of the gradient for `v`.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.0).and_then(std::option::Option::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_of_sum_is_ones() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1., 2., 3.], &[3]).unwrap());
        let s = g.sum_all(x);
        let grads = g.backward(s).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[1., 1., 1.]);
    }

    #[test]
    fn constants_get_no_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let c = g.constant(Tensor::scalar(5.0));
        let y = g.mul(x, c).unwrap();
        let grads = g.backward(y).unwrap();
        assert_eq!(grads.get(x).unwrap().item().unwrap(), 5.0);
        assert!(grads.get(c).is_none());
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        // y = x + x => dy/dx = 2
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(1.5));
        let y = g.add(x, x).unwrap();
        let grads = g.backward(y).unwrap();
        assert_eq!(grads.get(x).unwrap().item().unwrap(), 2.0);
    }

    #[test]
    fn backward_rejects_non_scalar_loss() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[3]));
        assert!(g.backward(x).is_err());
    }

    #[test]
    fn observer_sees_forward_and_backward_ops() {
        struct Rec(RefCell<Vec<(&'static str, TapePhase)>>);
        impl TapeObserver for Rec {
            fn on_op(&self, name: &'static str, phase: TapePhase, bytes: usize) {
                assert!(bytes > 0);
                self.0.borrow_mut().push((name, phase));
            }
        }
        let rec = Rc::new(Rec(RefCell::new(Vec::new())));
        let g = Graph::new();
        assert!(g.set_observer(Rc::clone(&rec) as Rc<dyn TapeObserver>).is_none());
        let x = g.leaf(Tensor::scalar(2.0));
        let y = g.mul(x, x).unwrap();
        g.backward(y).unwrap();
        let seen = rec.0.borrow();
        assert_eq!(
            seen.as_slice(),
            &[
                ("leaf", TapePhase::Forward),
                ("mul", TapePhase::Forward),
                ("mul", TapePhase::Backward),
            ]
        );
        drop(seen);
        assert!(g.clear_observer().is_some());
        g.scale(x, 2.0);
        assert!(rec.0.borrow().len() == 3, "detached observer must not be notified");
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // z = (x*x) + (x*3); dz/dx = 2x + 3 = 7 at x=2
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let sq = g.mul(x, x).unwrap();
        let tripled = g.scale(x, 3.0);
        let z = g.add(sq, tripled).unwrap();
        let grads = g.backward(z).unwrap();
        assert_eq!(grads.get(x).unwrap().item().unwrap(), 7.0);
    }
}
