// gus_ingest: build an on-disk segment catalog (src/store/) from either
// the synthetic TPC-H generator or CSV files, then verify it opens.
//
// Usage:
//   gus_ingest tpch <out_dir> [--orders=N] [--customers=N] [--parts=N]
//                             [--seed=S] [--segment-rows=N]
//   gus_ingest csv  <out_dir> <name=path.csv> [more name=path...]
//                             [--segment-rows=N] [--no-header]
//   gus_ingest info <dir>     # list relations, segments, fingerprints
//   gus_ingest verify <dir>   # decode every segment (checksums) and
//                             # recompute every content fingerprint
//
// verify exits 1 on the first relation whose pages fail their checksums
// or whose recomputed fingerprint differs from the header's; info only
// re-opens the files (headers and directories), it never reads a page.
//
// The written directory is a drop-in catalog: SegmentCatalog::Open(dir)
// serves every engine (see ARCHITECTURE.md "Storage layer").

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "rel/column_batch.h"
#include "store/csv_import.h"
#include "store/segment_catalog.h"
#include "store/segment_store.h"

namespace {

template <typename T>
T Unwrap(gus::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "gus_ingest: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

void Check(const gus::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "gus_ingest: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

int64_t FlagInt(const char* arg, const char* name, int64_t fallback) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::atoll(arg + n + 1);
  }
  return fallback;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gus_ingest tpch <out_dir> [--orders=N] [--customers=N]\n"
      "                            [--parts=N] [--seed=S] [--segment-rows=N]\n"
      "  gus_ingest csv  <out_dir> <name=path.csv>... [--segment-rows=N]\n"
      "                            [--no-header]\n"
      "  gus_ingest info <dir>\n"
      "  gus_ingest verify <dir>\n");
  return 2;
}

int RunInfo(const std::string& dir) {
  auto catalog = Unwrap(gus::SegmentCatalog::Open(dir));
  for (const std::string& name : catalog->RelationNames()) {
    const gus::StoredRelation* rel = Unwrap(catalog->Stored(name));
    std::printf("%-12s %10lld rows  %6lld segments x %lld  %8lld page KiB  "
                "fingerprint %016llx\n",
                name.c_str(), static_cast<long long>(rel->num_rows()),
                static_cast<long long>(rel->num_segments()),
                static_cast<long long>(rel->segment_rows()),
                static_cast<long long>(rel->total_page_bytes() / 1024),
                static_cast<unsigned long long>(rel->content_fingerprint()));
  }
  return 0;
}

int RunVerify(const std::string& dir) {
  auto catalog = Unwrap(gus::SegmentCatalog::Open(dir));
  for (const std::string& name : catalog->RelationNames()) {
    const gus::StoredRelation* rel = Unwrap(catalog->Stored(name));
    for (int64_t s = 0; s < rel->num_segments(); ++s) {
      Check(rel->DecodeSegment(s).status());
    }
    const uint64_t fingerprint = Unwrap(rel->ComputeContentFingerprint());
    if (fingerprint != rel->content_fingerprint()) {
      std::fprintf(stderr,
                   "gus_ingest: '%s' content fingerprint %016llx does not "
                   "match its header (%016llx)\n",
                   name.c_str(), static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(rel->content_fingerprint()));
      return 1;
    }
    std::printf("%-12s %6lld segments verified, fingerprint %016llx\n",
                name.c_str(), static_cast<long long>(rel->num_segments()),
                static_cast<unsigned long long>(fingerprint));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];

  if (cmd == "info") return RunInfo(dir);
  if (cmd == "verify") return RunVerify(dir);

  int64_t segment_rows = gus::kDefaultSegmentRows;
  for (int i = 3; i < argc; ++i) {
    segment_rows = FlagInt(argv[i], "--segment-rows", segment_rows);
  }

  if (cmd == "tpch") {
    gus::TpchConfig config;
    for (int i = 3; i < argc; ++i) {
      config.num_orders = FlagInt(argv[i], "--orders", config.num_orders);
      config.num_customers =
          FlagInt(argv[i], "--customers", config.num_customers);
      config.num_parts = FlagInt(argv[i], "--parts", config.num_parts);
      config.seed = static_cast<uint64_t>(
          FlagInt(argv[i], "--seed", static_cast<int64_t>(config.seed)));
    }
    const gus::TpchData data = gus::GenerateTpch(config);
    Check(gus::WriteCatalogSegments(data.MakeCatalog(), dir, segment_rows));
    std::printf("wrote TPC-H catalog (%lld orders) to %s\n",
                static_cast<long long>(config.num_orders), dir.c_str());
    return RunInfo(dir);
  }

  if (cmd == "csv") {
    gus::CsvImportOptions options;
    gus::Catalog catalog;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--no-header") == 0) {
        options.has_header = false;
        continue;
      }
      if (std::strncmp(argv[i], "--", 2) == 0) continue;
      const char* eq = std::strchr(argv[i], '=');
      if (eq == nullptr) {
        std::fprintf(stderr, "gus_ingest: want name=path.csv, got %s\n",
                     argv[i]);
        return 2;
      }
      const std::string name(argv[i], eq - argv[i]);
      catalog[name] = Unwrap(gus::ImportCsvFile(name, eq + 1, options));
    }
    if (catalog.empty()) return Usage();
    Check(gus::WriteCatalogSegments(catalog, dir, segment_rows));
    return RunInfo(dir);
  }

  return Usage();
}
