//! Persistent parameter storage, decoupled from any single graph.

use crate::graph::{Gradients, Graph, Var};
use sthsl_tensor::Tensor;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

#[derive(Clone)]
struct Param {
    name: String,
    value: Tensor,
}

/// Owns model parameters across training steps.
///
/// Each step: [`ParamStore::inject`] the parameters into a fresh [`Graph`] as
/// leaves, build the forward pass, call [`Graph::backward`], then let an
/// optimizer consume the gradients via the returned [`ParamVars`] mapping.
#[derive(Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.params.push(Param { name: name.into(), value });
        ParamId(self.params.len() - 1)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }

    /// Inject every parameter into `graph` as a gradient-tracked leaf and
    /// return the id → [`Var`] mapping for this step. Leaves carry the
    /// parameter's diagnostic name, so analyzer reports name the parameter.
    pub fn inject(&self, graph: &Graph) -> ParamVars {
        let vars =
            self.params.iter().map(|p| graph.named_leaf(p.name.clone(), p.value.clone())).collect();
        ParamVars { vars }
    }

    /// `(name, Var)` pairs for an injection of this store, aligned with
    /// parameter ids — the parameter table handed to the graph auditor.
    pub fn named_vars(&self, pv: &ParamVars) -> Vec<(String, Var)> {
        self.params.iter().zip(&pv.vars).map(|(p, &v)| (p.name.clone(), v)).collect()
    }

    /// True if any parameter contains NaN/inf (training blow-up detector).
    pub fn any_non_finite(&self) -> bool {
        self.params.iter().any(|p| p.value.has_non_finite())
    }

    /// Overwrite this store's parameter values from `other`, which must have
    /// the same parameters (names and shapes, in order). Every name and shape
    /// is checked *before* anything is mutated: on disagreement this store
    /// is left untouched and the error names the first offending parameter
    /// (its index, both names or both shapes).
    pub fn copy_values_from(&mut self, other: &ParamStore) -> Result<(), String> {
        if other.len() != self.len() {
            return Err(format!(
                "checkpoint has {} parameters, model config expects {}",
                other.len(),
                self.len()
            ));
        }
        for (i, (want, got)) in self.params.iter().zip(&other.params).enumerate() {
            if got.name != want.name {
                return Err(format!(
                    "checkpoint parameter #{i} is '{}', model config expects '{}'",
                    got.name, want.name
                ));
            }
            if got.value.shape() != want.value.shape() {
                return Err(format!(
                    "checkpoint parameter '{}' has shape {:?}, model config expects {:?}",
                    want.name,
                    got.value.shape(),
                    want.value.shape()
                ));
            }
        }
        for (p, src) in self.params.iter_mut().zip(&other.params) {
            p.value = src.value.clone();
        }
        Ok(())
    }
}

/// Per-step mapping from [`ParamId`] to the graph [`Var`] holding its value.
pub struct ParamVars {
    vars: Vec<Var>,
}

impl ParamVars {
    /// Graph variable for a parameter.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// All variables, aligned with parameter ids.
    pub fn all(&self) -> &[Var] {
        &self.vars
    }

    /// Gradient of a parameter from a backward pass, if any flowed.
    pub fn grad<'a>(&self, grads: &'a Gradients, id: ParamId) -> Option<&'a Tensor> {
        grads.get(self.vars[id.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2, 3]));
        let b = store.register("b", Tensor::zeros(&[3]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.name(w), "w");
        assert_eq!(store.get(b).shape(), &[3]);
    }

    #[test]
    fn inject_and_grad_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let g = Graph::new();
        let pv = store.inject(&g);
        let sq = g.square(pv.var(w));
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        assert_eq!(pv.grad(&grads, w).unwrap().data(), &[4.0]);
    }

    #[test]
    fn non_finite_detector() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        assert!(!store.any_non_finite());
        store.get_mut(w).data_mut()[0] = f32::INFINITY;
        assert!(store.any_non_finite());
    }
}
