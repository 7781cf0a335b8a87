// Machine-checks that the documentation references real files: every
// path-like token in docs/*.md (and README.md / EXPERIMENTS.md /
// ROADMAP.md) must resolve inside the repository. Docs rotted silently as
// the tree grew — architecture.md's layering diagram predated whole
// subsystems — so the CI docs-consistency leg runs this alongside
// metrics_docs_test.
//
// Contract for doc authors:
//   * backticked tokens containing '/' and a known source extension are
//     checked: `core/serving.h` resolves via src/, `tests/foo_test.cc`,
//     `docs/serving.md`, `.github/workflows/ci.yml` via the repo root;
//   * markdown link targets that are relative paths are checked relative
//     to the linking document's directory;
//   * tokens with glob/placeholder characters (*, <, {) and runtime
//     artifacts under build/ are exempt.
//
// The repo root comes from the TRENDSPEED_SOURCE_DIR compile definition,
// same as metrics_docs_test.cc.

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace trendspeed {
namespace {

namespace fs = std::filesystem;

const fs::path& Root() {
  static const fs::path root(TRENDSPEED_SOURCE_DIR);
  return root;
}

std::vector<fs::path> DocFiles() {
  std::vector<fs::path> docs;
  for (const auto& entry : fs::directory_iterator(Root() / "docs")) {
    if (entry.path().extension() == ".md") docs.push_back(entry.path());
  }
  for (const char* top : {"README.md", "EXPERIMENTS.md", "ROADMAP.md"}) {
    if (fs::exists(Root() / top)) docs.push_back(Root() / top);
  }
  return docs;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool HasKnownExtension(const std::string& token) {
  static const std::set<std::string> kExts = {
      ".h", ".cc", ".md", ".txt", ".cmake", ".yml", ".yaml", ".json", ".sh"};
  fs::path p(token);
  return kExts.count(p.extension().string()) > 0;
}

bool Exempt(const std::string& token) {
  return token.find('*') != std::string::npos ||
         token.find('<') != std::string::npos ||
         token.find('{') != std::string::npos ||
         token.find("://") != std::string::npos ||
         token.rfind("build/", 0) == 0 || token.rfind("./build", 0) == 0;
}

/// A repo path token resolves against the repo root or, for include-style
/// references like `core/serving.h`, against src/.
bool Resolves(const std::string& token) {
  return fs::exists(Root() / token) || fs::exists(Root() / "src" / token);
}

TEST(DocsPathsTest, EveryBacktickedPathResolves) {
  const std::regex span("`([^`\n]+)`");
  for (const fs::path& doc : DocFiles()) {
    const std::string text = ReadFile(doc);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), span);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1].str();
      // Only single path-like tokens: no spaces (those are commands), a
      // directory separator, a known extension, no globs/placeholders.
      if (token.find(' ') != std::string::npos) continue;
      if (token.find('/') == std::string::npos) continue;
      if (Exempt(token) || !HasKnownExtension(token)) continue;
      EXPECT_TRUE(Resolves(token))
          << doc.filename().string() << " references `" << token
          << "` which does not exist (tried <root>/" << token
          << " and <root>/src/" << token << ")";
    }
  }
}

TEST(DocsPathsTest, EveryRelativeMarkdownLinkResolves) {
  const std::regex link(R"(\]\(([^)#\s]+)(#[^)\s]*)?\))");
  for (const fs::path& doc : DocFiles()) {
    const std::string text = ReadFile(doc);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), link);
         it != std::sregex_iterator(); ++it) {
      const std::string target = (*it)[1].str();
      if (Exempt(target)) continue;  // external URLs etc.
      EXPECT_TRUE(fs::exists(doc.parent_path() / target) ||
                  Resolves(target))
          << doc.filename().string() << " links to " << target
          << " which does not exist";
    }
  }
}

TEST(DocsPathsTest, CoreDocsExist) {
  // The documentation set the README table of contents promises.
  for (const char* name :
       {"architecture.md", "algorithms.md", "observability.md",
        "performance.md", "serving.md"}) {
    EXPECT_TRUE(fs::exists(Root() / "docs" / name)) << name;
  }
}

}  // namespace
}  // namespace trendspeed
