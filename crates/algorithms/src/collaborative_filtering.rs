//! Collaborative filtering (matrix factorization by gradient descent) as a
//! GraphMat vertex program.
//!
//! The paper's formulation (§3-III, equations 3–6): each user `u` and item
//! `v` owns a latent vector `p ∈ ℝᴷ`; the goal is to minimise
//! `Σ (G_uv − pᵤᵀp_v)² + λ(‖pᵤ‖² + ‖p_v‖²)`. One gradient-descent step per
//! superstep:
//!
//! ```text
//! e_uv = G_uv − pᵤᵀ p_v
//! pᵤ ← pᵤ + γ [ Σ_v e_uv p_v − λ pᵤ ]
//! p_v ← p_v + γ [ Σ_u e_uv pᵤ − λ p_v ]
//! ```
//!
//! The ratings graph is bipartite (edges run user → item) and the program
//! scatters along **both** edge directions, so users and items update
//! simultaneously from the previous superstep's values — which is exactly GD
//! (not SGD), the reason the paper's CF is *faster* than the SGD native
//! baseline in Table 3.
//!
//! `PROCESS_MESSAGE` needs the destination vertex's latent vector to compute
//! `e_uv`; as with triangle counting, this is the frontend capability that
//! pure-semiring frameworks lack.

use crate::AlgorithmOutput;
use graphmat_core::error::Result;
use graphmat_core::{ActivityPolicy, EdgeDirection, GraphProgram, Session, Topology, VertexId};
use graphmat_io::edgelist::{EdgeList, EdgeWeight};

/// Collaborative filtering parameters.
#[derive(Clone, Copy, Debug)]
pub struct CfConfig {
    /// Number of latent features `K` (the paper uses a small constant; 20 by
    /// default here).
    pub latent_dims: usize,
    /// Regularisation weight `λ`.
    pub lambda: f64,
    /// Learning rate `γ`.
    pub gamma: f64,
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Seed for the deterministic initialisation of the latent vectors.
    pub seed: u64,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            latent_dims: 20,
            lambda: 0.05,
            gamma: 0.002,
            iterations: 10,
            seed: 7,
        }
    }
}

/// Per-vertex CF state: the latent feature vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CfVertex {
    /// Latent features (`K` entries).
    pub features: Vec<f64>,
}

/// The gradient-descent CF vertex program. Generic over any scalar-readable
/// rating type (`f32` by default, integer star ratings work too).
pub struct CfProgram<E = f32> {
    lambda: f64,
    gamma: f64,
    _edge: std::marker::PhantomData<E>,
}

impl<E: EdgeWeight> GraphProgram for CfProgram<E> {
    type VertexProp = CfVertex;
    type Message = Vec<f64>;
    type Reduced = Vec<f64>;
    type Edge = E;

    fn direction(&self) -> EdgeDirection {
        EdgeDirection::Both
    }

    fn send_message(&self, _v: VertexId, prop: &CfVertex) -> Option<Vec<f64>> {
        if prop.features.is_empty() {
            None
        } else {
            Some(prop.features.clone())
        }
    }

    fn process_message(&self, msg: &Vec<f64>, rating: &E, dst: &CfVertex) -> Vec<f64> {
        // e = G_uv − p_other · p_self ; contribution = e * p_other
        let dot: f64 = msg
            .iter()
            .zip(dst.features.iter())
            .map(|(a, b)| a * b)
            .sum();
        let error = rating.weight() as f64 - dot;
        msg.iter().map(|x| error * x).collect()
    }

    fn reduce(&self, acc: &mut Vec<f64>, value: Vec<f64>) {
        if acc.is_empty() {
            *acc = value;
        } else {
            for (a, v) in acc.iter_mut().zip(value) {
                *a += v;
            }
        }
    }

    fn apply(&self, reduced: &Vec<f64>, prop: &mut CfVertex) {
        if reduced.is_empty() {
            return;
        }
        for (p, grad) in prop.features.iter_mut().zip(reduced.iter()) {
            *p += self.gamma * (grad - self.lambda * *p);
        }
    }
}

/// Run collaborative filtering over a pre-built shared topology through a
/// [`Session`] and return the per-vertex latent vectors (users first, then
/// items, in vertex-id order).
///
/// The topology must be built from the bipartite ratings edge list (edges
/// run from user vertices to item vertices; weights are ratings) **with
/// in-edges enabled** (the default) — the program scatters in both
/// directions, and a topology without the `G` matrix yields
/// [`graphmat_core::GraphMatError::MissingInMatrix`]. A
/// `config.iterations` of `0` returns the deterministic initial latent
/// vectors without running.
pub fn collaborative_filtering_on<E: EdgeWeight>(
    session: &Session,
    topology: &Topology<E>,
    config: &CfConfig,
) -> Result<AlgorithmOutput<Vec<f64>>> {
    if config.latent_dims == 0 {
        return Err(graphmat_core::GraphMatError::InvalidParameter(
            "collaborative filtering needs at least one latent dimension",
        ));
    }
    let k = config.latent_dims;
    let seed = config.seed;
    let initial = move |v: VertexId| CfVertex {
        features: (0..k).map(|i| init_feature(seed, v, i, k)).collect(),
    };
    if config.iterations == 0 {
        let n = topology.num_vertices();
        return Ok(AlgorithmOutput {
            values: (0..n).map(|v| initial(v).features).collect(),
            stats: crate::zero_superstep_stats(topology, session),
            converged: false,
        });
    }

    let program = CfProgram::<E> {
        lambda: config.lambda,
        gamma: config.gamma,
        _edge: std::marker::PhantomData,
    };
    let outcome = session
        .run(topology, program)
        .init_with(initial)
        .activate_all()
        // gradient descent updates every user and item each iteration
        .activity(ActivityPolicy::AlwaysAll)
        .max_iterations(config.iterations)
        .execute()?;
    Ok(AlgorithmOutput::from(outcome).map_values(|p| p.features))
}

/// Deterministic pseudo-random initial feature value in `[0, 1/√K)`.
fn init_feature(seed: u64, v: VertexId, i: usize, k: usize) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((v as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_add((i as u64).wrapping_mul(0x165667B19E3779F9));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64 / (k as f64).sqrt()
}

/// Root-mean-square error of the factorization over the given ratings.
pub fn rmse<E: EdgeWeight>(edges: &EdgeList<E>, features: &[Vec<f64>]) -> f64 {
    if edges.num_edges() == 0 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for (u, v, rating) in edges.edges() {
        let prediction: f64 = features[*u as usize]
            .iter()
            .zip(features[*v as usize].iter())
            .map(|(a, b)| a * b)
            .sum();
        let err = rating.weight() as f64 - prediction;
        sum += err * err;
    }
    (sum / edges.num_edges() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmat_io::bipartite::{self, BipartiteConfig, RatingsGraph};

    fn small_ratings() -> RatingsGraph {
        bipartite::generate(&BipartiteConfig {
            num_users: 60,
            num_items: 15,
            num_ratings: 500,
            ..Default::default()
        })
    }

    /// CF over `ratings` on `session`.
    fn train(
        session: &Session,
        ratings: &RatingsGraph,
        cfg: &CfConfig,
    ) -> AlgorithmOutput<Vec<f64>> {
        let topo = session.build_graph(&ratings.edges).finish().unwrap();
        collaborative_filtering_on(session, &topo, cfg).unwrap()
    }

    #[test]
    fn rmse_decreases_over_iterations() {
        let ratings = small_ratings();
        let base = CfConfig {
            latent_dims: 8,
            iterations: 0,
            ..Default::default()
        };
        let trained_cfg = CfConfig {
            iterations: 30,
            ..base
        };
        let session = Session::sequential();
        let initial = train(&session, &ratings, &base);
        let trained = train(&session, &ratings, &trained_cfg);
        let rmse_initial = rmse(&ratings.edges, &initial.values);
        let rmse_trained = rmse(&ratings.edges, &trained.values);
        assert!(
            rmse_trained < rmse_initial * 0.9,
            "training should reduce RMSE: {rmse_initial} -> {rmse_trained}"
        );
    }

    #[test]
    fn latent_vectors_have_requested_dimension_and_iterations() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            latent_dims: 5,
            iterations: 6,
            ..Default::default()
        };
        let out = train(&Session::sequential(), &ratings, &cfg);
        assert_eq!(out.values.len(), ratings.edges.num_vertices() as usize);
        assert!(out.values.iter().all(|f| f.len() == 5));
        assert_eq!(out.stats.iterations, 6);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            latent_dims: 4,
            iterations: 5,
            ..Default::default()
        };
        let seq = train(&Session::sequential(), &ratings, &cfg);
        let par = train(&Session::with_threads(4).unwrap(), &ratings, &cfg);
        for (a, b) in seq.values.iter().zip(par.values.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn needs_in_edges_and_a_latent_dimension() {
        let ratings = small_ratings();
        let cfg = CfConfig {
            latent_dims: 4,
            iterations: 5,
            ..Default::default()
        };
        let session = Session::sequential();
        let out_only = session
            .build_graph(&ratings.edges)
            .in_edges(false)
            .finish()
            .unwrap();
        assert_eq!(
            collaborative_filtering_on(&session, &out_only, &cfg).unwrap_err(),
            graphmat_core::GraphMatError::MissingInMatrix
        );

        // Invalid config is an error, never a panic.
        let topo = session.build_graph(&ratings.edges).finish().unwrap();
        let bad = CfConfig {
            latent_dims: 0,
            ..cfg
        };
        assert!(matches!(
            collaborative_filtering_on(&session, &topo, &bad).unwrap_err(),
            graphmat_core::GraphMatError::InvalidParameter(_)
        ));
    }

    #[test]
    fn initialisation_is_deterministic_and_bounded() {
        for v in 0..50u32 {
            for i in 0..8usize {
                let a = init_feature(7, v, i, 8);
                let b = init_feature(7, v, i, 8);
                assert_eq!(a, b);
                assert!((0.0..1.0).contains(&a));
            }
        }
    }

    #[test]
    fn rmse_of_perfect_factorization_is_zero() {
        // rating = 2.0, features chosen so dot product = 2.0 exactly
        let el = EdgeList::from_tuples(2, vec![(0, 1, 2.0)]);
        let features = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(rmse(&el, &features) < 1e-12);
    }
}
