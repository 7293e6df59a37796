// Cross-process sweep sharding: deterministic partition of a sweep grid
// across K independent `hmmsim` processes (possibly on K machines), plus
// the job-manifest format that lets `hmm-merge` validate and reassemble
// the shard outputs into the exact CSV one process would have produced.
//
// The pieces:
//
//   GridSpec   — THE sweep grid of every frontend (hmmsim flags, the
//                hmmsimd run request, manifests): algorithm, model, the
//                six axis value lists, seed and the row flags.  Its
//                `expand()` is the one row-major (n, m, p, w, l, d)
//                expansion into run::Points, so grid index i names the
//                same operating point everywhere.  Its identity is
//                everything that determines the CSV rows (and nothing
//                that does not: `--jobs` is a runner-local choice); the
//                `fingerprint()` — FNV-1a 64 over a canonical rendering
//                — tags every manifest and every sharded CSV row, so a
//                merge can prove all inputs came from the same grid.
//   ShardPlan  — round-robin assignment: shard i of K owns grid indices
//                {i, i+K, i+2K, ...} in row-major grid order.  Because
//                `n` is the outermost axis, round-robin interleaves the
//                expensive large-n points across shards instead of
//                handing the whole large-n tail to the last shard.
//   Manifest   — the JSON job file `hmmsim --emit-manifest` writes: one
//                entry per shard with the exact argv to run, the
//                expected row count, the fingerprint and the CSV header
//                every shard must reproduce.  docs/API.md documents the
//                schema field by field.
//
// Determinism contract: the same GridSpec and K always produce the same
// plan, the same manifest bytes and — because grid points are
// independent simulations — the same rows, regardless of which machine
// runs which shard (tests/shard_test.cpp, tools/shard_roundtrip.sh).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machine/topology_spec.hpp"
#include "run/point.hpp"

namespace hmm::run {

/// FNV-1a 64-bit over `bytes` — the manifest fingerprint hash.
std::uint64_t fnv1a64(std::string_view bytes);

/// Round-robin shard assignment: shard `shard` of `shards` owns every
/// grid index congruent to it mod `shards`.
struct ShardPlan {
  std::int64_t shard = 0;   ///< in [0, shards)
  std::int64_t shards = 1;  ///< >= 1

  bool owns(std::int64_t grid_index) const {
    return grid_index % shards == shard;
  }

  /// How many of `grid_points` indices this shard owns.
  std::int64_t count(std::int64_t grid_points) const;

  /// The owned indices, ascending.
  std::vector<std::int64_t> indices(std::int64_t grid_points) const;
};

/// Parse "i/K" (e.g. "--shard=2/8") into a plan.  Returns false on
/// malformed input, K < 1 or i outside [0, K).
bool parse_shard_spec(std::string_view spec, ShardPlan& plan);

/// Identity of one sweep grid; see file comment.
struct GridSpec {
  std::string algorithm;
  std::string model = "hmm";
  std::vector<std::int64_t> n, m, p, w, l, d;
  std::uint64_t seed = 1;
  bool metrics = false;       ///< rows carry the five metric columns
  bool fast_forward = true;   ///< engine replay shortcut (hmmsim
                              ///< --fast-forward); part of the identity
                              ///< because shards must agree on it even
                              ///< though results are provably equal
  bool analyze = false;       ///< rows carry the three static-analyzer
                              ///< columns (hmmsim --analyze sweeps)
  /// Topology digest: the canonical text of a NON-trivial --machine
  /// spec (topo::TopologySpec::canonical()), empty for plain flags and
  /// for trivial specs — a flag run and its equivalent JSON must share a
  /// fingerprint, while any topology the flags cannot express must
  /// change it.  Appended to canonical() only when non-empty so all
  /// pre-topology fingerprints are unchanged.
  std::string machine;
  /// The --machine file path for manifest argv reconstruction.  Runner
  /// input, not grid identity: NOT part of canonical() (two paths to the
  /// same document fingerprint identically via `machine`).
  std::string machine_path;
  /// The resolved topology every expanded point carries (set_machine);
  /// null for plain flags.  Runner input like machine_path: `machine`
  /// is its identity.
  std::shared_ptr<const topo::TopologySpec> topology;

  /// Adopt a declarative machine (--machine=FILE, a run request's
  /// machine or preset): it REPLACES the p/w/l/d axes with the shape it
  /// derives, records its digest in `machine` when non-trivial, and
  /// rides on every expanded point.  Throws PreconditionError when a
  /// non-trivial spec meets a model other than hmm
  /// (run::require_machine_model).
  void set_machine(std::shared_ptr<const topo::TopologySpec> spec);

  /// Total grid points (product of the six axis sizes).
  std::int64_t points() const;

  /// The grid's points in row-major (n, m, p, w, l, d) order — index i
  /// is ShardPlan grid index i and CSV row i.  Every point carries
  /// `topology` and the engine thread count `threads` resolves to
  /// against a `jobs`-wide sweep (run::resolve_engine_threads, applied
  /// once for the grid; a single point is never clamped by `jobs`).
  std::vector<Point> expand(std::int64_t threads, std::int64_t jobs) const;

  /// Canonical one-line rendering — the fingerprint input.  Stable
  /// across runs and processes by construction (no pointers, no
  /// locale, fixed field order).
  std::string canonical() const;

  /// 16 lowercase hex digits of fnv1a64(canonical()).
  std::string fingerprint() const;

  friend bool operator==(const GridSpec&, const GridSpec&) = default;
};

/// One shard's job in a manifest.
struct ManifestEntry {
  std::int64_t shard = 0;
  std::int64_t grid_points = 0;       ///< rows this shard must produce
  std::vector<std::string> argv;      ///< exact command to run it

  friend bool operator==(const ManifestEntry&,
                         const ManifestEntry&) = default;
};

/// The parsed (or planned) job manifest.
struct Manifest {
  std::int64_t version = 1;
  std::string tool;         ///< argv[0] recorded for the entries
  std::string fingerprint;  ///< GridSpec::fingerprint() of `grid`
  std::int64_t grid_points = 0;
  std::int64_t shards = 0;
  std::string header;       ///< CSV header line every shard must emit
  GridSpec grid;
  std::vector<ManifestEntry> entries;  ///< one per shard, in shard order

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Plan a K-way manifest for `spec`.  `tool` is the command name to
/// record in each entry's argv (conventionally "hmmsim"); `header` is
/// the sharded CSV header the runs will emit
/// (report/sweep_csv.hpp: sweep_csv_header(spec.metrics, true)).
Manifest plan_manifest(const GridSpec& spec, std::int64_t shards,
                       const std::string& tool, const std::string& header);

/// Serialize to the manifest JSON document (stable key order, 2-space
/// indent, trailing newline) — byte-identical for identical manifests.
std::string manifest_json(const Manifest& manifest);

/// Parse a manifest document; throws PreconditionError on syntax
/// errors, missing fields, an unsupported version, or internal
/// inconsistencies (entry count != shards, fingerprint mismatch with
/// the embedded grid, point counts that don't add up).
Manifest parse_manifest_json(const std::string& text);

}  // namespace hmm::run
