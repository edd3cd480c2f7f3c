// libFuzzer harness for the SQL frontend: splitter -> lexer -> parser ->
// fingerprint over arbitrary bytes. The frontend's contract under hostile
// input is narrow and checkable without a model: no crash, no sanitizer
// report, no hang, and exceptions only of the declared std::exception kind.
// A few cheap structural invariants ride along — every split piece must view
// into the input buffer, the canonical fingerprint must be stable under
// re-canonicalization (idempotence), and the exact canonical form the
// session's dedup memo renders from a parse's leftover tokens must equal the
// rendering of a fresh lex of the same bytes (the form the scanner's store
// and the quarantine key use).
//
// Build (clang only): cmake -DSQLCHECK_BUILD_FUZZERS=ON, target fuzz_frontend.
//   $ ./fuzz_frontend corpus_dir -max_total_time=60
// Seed the corpus from the table-3 workload before the first run:
//   $ SQLCHECK_FUZZ_SEED_DIR=corpus_dir ./fuzz_frontend -runs=0
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/splitter.h"
#include "workload/corpus.h"

namespace {

/// Writes one seed file per unique table-3 workload statement, so the fuzzer
/// starts from real SQL shapes instead of discovering the grammar from zero.
void DumpSeeds(const char* dir) {
  sqlcheck::workload::CorpusOptions options;
  options.repo_count = 24;  // a few hundred statements; diversity over bulk
  sqlcheck::workload::Corpus corpus = sqlcheck::workload::GenerateCorpus(options);
  size_t written = 0;
  for (const auto& statement : corpus.AllStatements()) {
    std::string path = std::string(dir) + "/seed_" + std::to_string(written) + ".sql";
    FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "fuzz_frontend: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fwrite(statement.sql.data(), 1, statement.sql.size(), out);
    std::fclose(out);
    ++written;
  }
  std::fprintf(stderr, "fuzz_frontend: wrote %zu seeds to %s\n", written, dir);
}

}  // namespace

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  // Seed-dump mode: emit the table-3 workload as a corpus and exit. An env
  // var rather than a flag keeps libFuzzer's own argv parsing untouched.
  const char* seed_dir = std::getenv("SQLCHECK_FUZZ_SEED_DIR");
  if (seed_dir != nullptr && *seed_dir != '\0') {
    DumpSeeds(seed_dir);
    std::exit(0);
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);

  // Stage 1: split. Must never throw — the splitter is the streaming loop's
  // framing layer and runs before any recovery scaffolding exists.
  std::vector<std::string_view> pieces;
  bool complete = false;
  sqlcheck::sql::TokenBuffer buffer;
  pieces = sqlcheck::sql::SplitStatements(input, &complete, &buffer);
  for (std::string_view piece : pieces) {
    if (!piece.empty() &&
        (piece.data() < input.data() ||
         piece.data() + piece.size() > input.data() + input.size())) {
      __builtin_trap();  // a piece escaped the input buffer
    }
  }

  // Stage 2: lex + parse + fingerprint each piece. std::exception subclasses
  // are the declared failure mode for hostile input; anything else (raw
  // throw, abort, sanitizer hit) is a finding.
  sqlcheck::Arena arena;
  for (std::string_view piece : pieces) {
    try {
      sqlcheck::sql::Lex(piece, buffer);
      sqlcheck::sql::StatementPtr stmt =
          sqlcheck::sql::ParseStatement(piece, &arena, &buffer);
      (void)stmt;
      const auto exact = sqlcheck::sql::FingerprintOptions::Exact();
      if (sqlcheck::sql::CanonicalizeTokens(buffer.tokens(), exact) !=
          sqlcheck::sql::CanonicalizeSql(piece, exact)) {
        __builtin_trap();  // the parse's tokens and a fresh lex disagree
      }
      std::string canonical = sqlcheck::sql::CanonicalizeSql(piece);
      if (sqlcheck::sql::CanonicalizeSql(canonical) != canonical) {
        __builtin_trap();  // canonicalization must be idempotent
      }
    } catch (const std::exception&) {
      // Declared contract: malformed SQL may throw; the engine's append
      // paths catch exactly this and convert it to a statement failure.
    }
  }

  // Stage 3: the whole input as one script, exactly as AddScript would.
  try {
    std::vector<sqlcheck::sql::StatementPtr> stmts =
        sqlcheck::sql::ParseScript(input, &arena, &buffer);
    (void)stmts;
  } catch (const std::exception&) {
  }
  return 0;
}
