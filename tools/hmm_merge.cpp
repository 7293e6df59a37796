// hmm-merge — validate and merge sharded `hmmsim --shard=i/K` CSV
// outputs back into the single CSV a one-process `hmmsim --csv` run
// would have produced.
//
//   hmm-merge --manifest=FILE [--strict] [--out=FILE] SHARD.csv...
//
// Every input file must carry the manifest's exact header and every row
// must carry the manifest's grid fingerprint — proof that all shards
// ran the same grid (same algorithm, axes, seed, metrics flag).  Rows
// are keyed by their grid_index column; the merge re-emits them in grid
// order with the three shard columns stripped, so the output is
// byte-identical to the single-process run, not merely row-equivalent
// (locked by tools/shard_roundtrip.sh).
//
// A per-shard coverage table goes to stderr (stdout stays pure CSV).
//
// Exit codes (documented in docs/API.md):
//   0  merged, full coverage
//   1  I/O or malformed manifest
//   2  usage
//   3  fingerprint / header mismatch against the manifest
//   4  duplicate grid point across the inputs
//   5  missing grid points under --strict (without --strict: a warning,
//      and the merge emits the rows it has)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"
#include "core/version.hpp"
#include "report/sweep_csv.hpp"
#include "report/table.hpp"
#include "run/shard.hpp"

using namespace hmm;

namespace {

constexpr int kExitMismatch = 3;
constexpr int kExitDuplicate = 4;
constexpr int kExitGap = 5;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "hmm-merge %s — merge sharded hmmsim sweep CSVs\n\n"
      "usage: %s --manifest=FILE [--strict] [--out=FILE] SHARD.csv...\n"
      "  --manifest=FILE  job manifest written by hmmsim --emit-manifest\n"
      "  --strict         fail (exit 5) when grid points are missing\n"
      "  --out=FILE       write merged CSV here instead of stdout\n\n"
      "Validates every shard file against the manifest (header equality,\n"
      "fingerprint per row, round-robin shard ownership, no duplicates),\n"
      "prints a per-shard coverage table to stderr and emits the merged\n"
      "rows in grid order with the shard columns stripped — the exact\n"
      "CSV a single-process `hmmsim --csv` run would have produced.\n"
      "Exit codes: 1 I/O, 2 usage, 3 fingerprint/header mismatch,\n"
      "4 duplicate grid point, 5 coverage gap under --strict.\n",
      kVersionString, argv0);
  return 2;
}

struct Args {
  std::string manifest_path;
  std::string out_path;  ///< empty: stdout
  bool strict = false;
  std::vector<std::string> inputs;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--manifest=", 0) == 0) {
      args.manifest_path = a.substr(std::strlen("--manifest="));
      if (args.manifest_path.empty()) return false;
    } else if (a.rfind("--out=", 0) == 0) {
      args.out_path = a.substr(std::strlen("--out="));
      if (args.out_path.empty()) return false;
    } else if (a == "--strict") {
      args.strict = true;
    } else if (a.rfind("--", 0) == 0) {
      return false;
    } else {
      args.inputs.push_back(a);
    }
  }
  return !args.manifest_path.empty() && !args.inputs.empty();
}

std::vector<std::string> split_csv(const std::string& line) {
  // The sweep schema never quotes cells or embeds commas, so a plain
  // split is exact (report/sweep_csv.hpp).
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

bool parse_int(const std::string& s, std::int64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoll(s, &used);
    return used == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

[[noreturn]] void mismatch(const std::string& file, std::size_t lineno,
                           const std::string& what) {
  std::fprintf(stderr, "hmm-merge: %s:%zu: %s\n", file.c_str(), lineno,
               what.c_str());
  std::exit(kExitMismatch);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  try {
    const std::optional<std::string> manifest_text =
        json::read_document(args.manifest_path);
    if (!manifest_text) {
      throw PreconditionError("cannot open manifest: " + args.manifest_path);
    }
    const run::Manifest manifest = run::parse_manifest_json(*manifest_text);

    const std::size_t header_cols = split_csv(manifest.header).size();
    const std::size_t data_cols =
        header_cols - static_cast<std::size_t>(kShardColumns);

    // Row text per grid index, shard columns stripped; nullopt = unseen.
    std::vector<std::optional<std::string>> rows(
        static_cast<std::size_t>(manifest.grid_points));
    // seen[g]: which input file first claimed grid index g (for the
    // duplicate diagnostic); per-shard row tallies for the summary.
    std::vector<std::string> first_file(
        static_cast<std::size_t>(manifest.grid_points));
    std::vector<std::int64_t> rows_per_shard(
        static_cast<std::size_t>(manifest.shards), 0);

    for (const std::string& path : args.inputs) {
      std::ifstream in(path);
      if (!in) throw PreconditionError("cannot open shard CSV: " + path);
      std::string line;
      std::size_t lineno = 0;
      if (!std::getline(in, line)) {
        mismatch(path, 1, "empty file (expected the manifest header)");
      }
      ++lineno;
      if (line != manifest.header) {
        mismatch(path, lineno,
                 "header does not match the manifest\n  expected: " +
                     manifest.header + "\n  got:      " + line);
      }
      while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        const std::vector<std::string> cells = split_csv(line);
        if (cells.size() != header_cols) {
          mismatch(path, lineno,
                   "row has " + std::to_string(cells.size()) +
                       " columns, header has " +
                       std::to_string(header_cols));
        }
        std::int64_t grid_index = 0;
        std::int64_t shard = 0;
        if (!parse_int(cells[data_cols], grid_index) ||
            !parse_int(cells[data_cols + 1], shard)) {
          mismatch(path, lineno, "malformed grid_index/shard columns");
        }
        const std::string& row_fingerprint = cells[data_cols + 2];
        if (row_fingerprint != manifest.fingerprint) {
          mismatch(path, lineno,
                   "fingerprint " + row_fingerprint +
                       " does not match the manifest's " +
                       manifest.fingerprint +
                       " (different grid, seed or metrics flag?)");
        }
        if (grid_index < 0 || grid_index >= manifest.grid_points) {
          mismatch(path, lineno,
                   "grid_index " + std::to_string(grid_index) +
                       " outside [0, " +
                       std::to_string(manifest.grid_points) + ")");
        }
        if (shard < 0 || shard >= manifest.shards ||
            grid_index % manifest.shards != shard) {
          mismatch(path, lineno,
                   "row claims shard " + std::to_string(shard) +
                       " but grid_index " + std::to_string(grid_index) +
                       " belongs to shard " +
                       std::to_string(grid_index % manifest.shards));
        }
        const std::size_t g = static_cast<std::size_t>(grid_index);
        if (rows[g].has_value()) {
          std::fprintf(stderr,
                       "hmm-merge: %s:%zu: duplicate grid point %lld "
                       "(first seen in %s)\n",
                       path.c_str(), lineno,
                       static_cast<long long>(grid_index),
                       first_file[g].c_str());
          return kExitDuplicate;
        }
        // Strip the shard columns: keep the first data_cols cells.
        std::string stripped;
        for (std::size_t c = 0; c < data_cols; ++c) {
          if (c > 0) stripped += ',';
          stripped += cells[c];
        }
        rows[g] = std::move(stripped);
        first_file[g] = path;
        rows_per_shard[static_cast<std::size_t>(shard)] += 1;
      }
    }

    // Coverage: per-shard summary to stderr, gaps handled per --strict.
    Table coverage("shard coverage (" + std::to_string(args.inputs.size()) +
                   " input files, fingerprint " + manifest.fingerprint + ")");
    coverage.set_header({"shard", "expected_rows", "merged_rows", "status"});
    std::int64_t total_seen = 0;
    for (const run::ManifestEntry& entry : manifest.entries) {
      const std::int64_t got =
          rows_per_shard[static_cast<std::size_t>(entry.shard)];
      total_seen += got;
      coverage.add_row({Table::cell(entry.shard),
                        Table::cell(entry.grid_points), Table::cell(got),
                        got == entry.grid_points ? "complete" : "MISSING"});
    }
    std::ostringstream coverage_text;
    coverage.print(coverage_text);
    std::fprintf(stderr, "%s", coverage_text.str().c_str());

    const std::int64_t missing = manifest.grid_points - total_seen;
    if (missing > 0) {
      std::string examples;
      int shown = 0;
      for (std::size_t g = 0; g < rows.size() && shown < 5; ++g) {
        if (!rows[g].has_value()) {
          examples += (shown == 0 ? "" : ", ") + std::to_string(g);
          ++shown;
        }
      }
      std::fprintf(stderr,
                   "hmm-merge: %lld of %lld grid points missing (e.g. "
                   "indices %s)%s\n",
                   static_cast<long long>(missing),
                   static_cast<long long>(manifest.grid_points),
                   examples.c_str(),
                   args.strict ? "" : " — merging the rows present");
      if (args.strict) return kExitGap;
    }

    std::ofstream out_file;
    if (!args.out_path.empty()) {
      out_file.open(args.out_path);
      if (!out_file) {
        throw PreconditionError("cannot open output file: " + args.out_path);
      }
    }
    std::ostream& out = args.out_path.empty()
                            ? static_cast<std::ostream&>(std::cout)
                            : out_file;
    for (const std::optional<std::string>& row : rows) {
      if (row.has_value()) out << *row << '\n';
    }
    out.flush();
    if (!out) {
      throw PreconditionError("failed writing merged CSV");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmm-merge: error: %s\n", e.what());
    return 1;
  }
}
