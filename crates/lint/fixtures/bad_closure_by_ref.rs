//! Fixture: R9 `kernel-closure-by-ref`. Closure literals handed to the
//! per-element kernel entry points without `move` — three hits. The `move`
//! closures, the closure-valued argument, `.map(` (out of scope), the
//! entry point's own definition and the test-module copy are fine.

pub struct Tensor(Vec<f32>);

impl Tensor {
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        Tensor(self.0.iter().zip(&other.0).map(|(&a, &b)| f(a, b)).collect())
    }

    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.0 {
            *v = f(*v);
        }
    }
}

pub fn leaky_grad(g: &Tensor, x: &Tensor, alpha: f32) -> Tensor {
    g.zip_map(x, |gv, xv| if xv > 0.0 { gv } else { alpha * gv })
}

pub fn shift(t: &mut Tensor, s: f32) {
    t.map_inplace(|v| v + s);
}

pub fn scale_rows(data: &mut [f32], rows: usize, factor: f32) {
    parallel_rows_mut(data, rows, 1, 1, |_, band: &mut [f32]| {
        for v in band.iter_mut() {
            *v *= factor;
        }
    });
}

pub fn leaky_grad_by_value(g: &Tensor, x: &Tensor, alpha: f32) -> Tensor {
    g.zip_map(x, move |gv, xv| gv * if xv > 0.0 { 1.0 } else { alpha })
}

pub fn product(a: &Tensor, b: &Tensor) -> Tensor {
    let f = |x: f32, y: f32| x * y;
    a.zip_map(b, f)
}

pub fn doubled(xs: &[f32], k: f32) -> Vec<f32> {
    xs.iter().map(|v| v * k).collect()
}

fn parallel_rows_mut(data: &mut [f32], rows: usize, stride: usize, min: usize, f: impl Fn(usize, &mut [f32])) {
    let _ = (rows, stride, min);
    f(0, data);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_borrow() {
        let mut t = super::Tensor(vec![1.0]);
        let s = 2.0;
        t.map_inplace(|v| v * s);
    }
}
