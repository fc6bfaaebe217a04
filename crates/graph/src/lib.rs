//! # lcg-graph — graph substrate for *Lightning Creation Games*
//!
//! A small, dependency-light directed-multigraph library purpose-built for
//! the ICDCS 2023 paper *Lightning Creation Games* (Avarikioti, Lizurej,
//! Michalak, Yeo). Payment channel networks are directed graphs in which
//! every bidirectional channel is a pair of opposite directed edges
//! (paper §II-A); everything downstream — rate estimation, utilities,
//! equilibrium checks — reduces to the shortest-path machinery provided
//! here:
//!
//! * [`graph`] — the [`DiGraph`] container with stable [`NodeId`]/[`EdgeId`]
//!   handles, tombstoned removal, reduced-subgraph filtering and the
//!   `G \ {u}` operation used by the modified Zipf ranking.
//! * [`bfs`] — hop distances, shortest-path counting `m(s,r)`, diameter,
//!   and the uniform shortest-path sampler behind payment routing.
//! * [`dijkstra`] — fee-weighted routing for the simulator.
//! * [`betweenness`] — Brandes edge/node betweenness with per-pair weights,
//!   the exact quantity in the paper's Eq. 2 (`p_e`) and the Section IV
//!   revenue formula; plus a brute-force reference implementation.
//! * [`incremental`] — delta-aware betweenness for `host + {u, channels(u)}`
//!   augmentations: snapshots per-source BFS trees once and recomputes only
//!   affected sources, bit-identical to the from-scratch path.
//! * [`edge_delta`] — the same idea for batches of channel insertions and
//!   deletions between *existing* nodes, with per-query pair-weight
//!   overrides for the recomputed-Zipf setting. The §IV deviation search no
//!   longer calls it (it scores candidates in place with
//!   `lcg_equilibria::scorer`); the module stays, with its differential
//!   suite, until it is removed on its own.
//! * [`metrics`] — clustering, path lengths and degree statistics for
//!   reporting on emergent topologies.
//! * [`generators`] — star/path/circle/complete topologies of §IV and the
//!   Erdős–Rényi / Barabási–Albert random models used in experiments.
//!
//! # Quick start
//!
//! ```
//! use lcg_graph::{generators, betweenness, NodeId};
//!
//! // The probability that each edge carries a uniformly chosen transaction:
//! let g = generators::star(4);
//! let pairs = (g.node_count() * (g.node_count() - 1)) as f64;
//! let pe = betweenness::weighted_edge_betweenness(&g, |_, _| 1.0 / pairs);
//! let total: f64 = pe.iter().sum();
//! assert!(total > 1.0); // multi-hop pairs traverse several edges
//! ```

pub mod betweenness;
pub mod bfs;
pub mod dijkstra;
pub mod edge_delta;
pub mod generators;
pub mod graph;
pub mod incremental;
pub mod metrics;

pub use graph::{DiGraph, EdgeId, NodeId};
