// flexbuild — the deployment utility of §3: "a utility tool that enables
// users to choose specific components, build and generate their
// respective binaries or Docker images."
//
// This reproduction's flexbuild maps the paper's numbered LEGO bricks
// (Figure 3, ①–㉔) onto this repository's libraries, resolves the
// dependency closure, and emits a ready-to-build CMake project for the
// custom deployment.
//
//   flexbuild --list
//   flexbuild --components 1,5,14,16,20,21 --name anti_fraud --out /tmp/d
//   flexbuild --preset workload2          # the paper's §3 example
//   flexbuild --preset workload5
//
// Example from the paper: "engineers focusing on Workload 2 might select
// components ①⑤⑭⑯⑳㉑" (SDK, built-in algorithms, PIE, GRAPE, GRIN,
// Vineyard); "a data scientist addressing Workload 5 may opt for
// ②④⑧⑨⑩⑬⑳㉓" (API, Cypher, GraphIR, optimizer, codegen, Gaia, GRIN,
// GraphAr).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace {

struct Component {
  int id;
  const char* name;
  const char* layer;
  const char* library;          // CMake target in this repo ("" = header).
  std::vector<int> depends_on;  // Other component ids.
};

// Figure 3's bricks, numbered as in the paper.
const Component kComponents[] = {
    {1, "C++ SDK", "application", "", {}},
    {2, "Client API (RESTful/WebSocket analogue)", "application", "", {}},
    {3, "Gremlin front end", "application", "flex_lang", {8}},
    {4, "Cypher front end", "application", "flex_lang", {8}},
    {5, "Built-in analytics algorithms", "application", "flex_grape", {16}},
    {6, "Custom-algorithm interfaces (PIE/Pregel/FLASH SDKs)", "application",
     "flex_grape", {16}},
    {7, "Built-in GNN models (GraphSAGE/NCN)", "application", "flex_learn",
     {17}},
    {8, "GraphIR", "engine", "flex_ir", {20}},
    {9, "Query optimizer (RBO + GLogue CBO)", "engine", "flex_optimizer",
     {8}},
    {10, "Code generator: Gaia", "engine", "flex_query", {8, 9}},
    {11, "Code generator: HiActor", "engine", "flex_query", {8, 9}},
    {12, "HiActor engine (OLTP)", "engine", "flex_runtime", {8}},
    {13, "Gaia engine (OLAP)", "engine", "flex_runtime", {8}},
    {14, "PIE model", "engine", "flex_grape", {16}},
    {15, "FLASH model", "engine", "flex_grape", {16}},
    {16, "GRAPE analytical engine", "engine", "flex_grape", {20}},
    {17, "GraphLearn (sampling + pipeline)", "engine", "flex_learn", {20}},
    {18, "Training backend (mini tensor library)", "engine", "flex_learn",
     {17}},
    {19, "Training backend: TensorFlow", "engine", "", {17}},
    {20, "GRIN unified retrieval interface", "storage", "flex_grin", {}},
    {21, "Vineyard (immutable in-memory store)", "storage", "flex_storage",
     {20}},
    {22, "GART (dynamic MVCC store)", "storage", "flex_storage", {20}},
    {23, "GraphAr (archive format)", "storage", "flex_storage", {20}},
    {24, "LiveGraph-style baseline store", "storage", "flex_baselines",
     {20}},
};

const Component* Find(int id) {
  for (const Component& c : kComponents) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

void PrintList() {
  std::printf("GraphScope Flex components (Figure 3):\n");
  const char* current_layer = "";
  for (const Component& c : kComponents) {
    if (std::strcmp(current_layer, c.layer) != 0) {
      current_layer = c.layer;
      std::printf("\n  [%s layer]\n", c.layer);
    }
    std::printf("   %2d  %-52s %s\n", c.id, c.name,
                c.library[0] ? c.library : "(header-only)");
  }
  std::printf("\npresets: workload2 = 1,5,14,16,20,21   "
              "workload5 = 2,4,8,9,10,13,20,23\n");
}

/// Transitive dependency closure of the selection.
std::set<int> Closure(const std::set<int>& selected) {
  std::set<int> closed = selected;
  bool grew = true;
  while (grew) {
    grew = false;
    for (int id : std::set<int>(closed)) {
      const Component* c = Find(id);
      if (c == nullptr) continue;
      for (int dep : c->depends_on) {
        grew |= closed.insert(dep).second;
      }
    }
  }
  return closed;
}

int Generate(const std::set<int>& selection, const std::string& name,
             const std::string& out_dir) {
  const std::set<int> closed = Closure(selection);
  std::printf("deployment '%s': %zu selected -> %zu after dependency "
              "closure\n\n",
              name.c_str(), selection.size(), closed.size());
  std::set<std::string> libraries;
  for (int id : closed) {
    const Component* c = Find(id);
    if (c == nullptr) {
      std::fprintf(stderr, "error: unknown component %d (see --list)\n", id);
      return 1;
    }
    const bool added = selection.count(id) != 0;
    std::printf("  %2d  %-52s %s\n", c->id, c->name,
                added ? "" : "(dependency)");
    if (c->library[0]) libraries.insert(c->library);
  }

  if (out_dir.empty()) return 0;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", out_dir.c_str());
    return 1;
  }
  std::ofstream cmake(out_dir + "/CMakeLists.txt", std::ios::trunc);
  cmake << "# Generated by flexbuild — deployment '" << name << "'.\n"
        << "# Add this directory with add_subdirectory() from the\n"
        << "# GraphScope Flex repository root, or point FLEX_ROOT at it.\n"
        << "add_executable(" << name << " main.cc)\n"
        << "target_link_libraries(" << name << " PRIVATE\n";
  for (const std::string& lib : libraries) cmake << "  " << lib << "\n";
  cmake << ")\n";

  std::ofstream main_cc(out_dir + "/main.cc", std::ios::trunc);
  main_cc << "// Deployment '" << name
          << "' — generated by flexbuild; wire your workload here.\n"
          << "#include <cstdio>\n\nint main() {\n"
          << "  std::printf(\"deployment '" << name
          << "' is alive\\n\");\n  return 0;\n}\n";
  std::printf("\nwrote %s/CMakeLists.txt and main.cc (links:", out_dir.c_str());
  for (const std::string& lib : libraries) std::printf(" %s", lib.c_str());
  std::printf(")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::set<int> selection;
  std::string name = "flex_deployment";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      PrintList();
      return 0;
    }
    if (arg == "--components" && i + 1 < argc) {
      for (const std::string& tok : flex::Split(argv[++i], ',')) {
        selection.insert(std::atoi(tok.c_str()));
      }
    } else if (arg == "--preset" && i + 1 < argc) {
      const std::string preset = argv[++i];
      if (preset == "workload2") {
        selection = {1, 5, 14, 16, 20, 21};
        if (name == "flex_deployment") name = "anti_fraud_analytics";
      } else if (preset == "workload5") {
        selection = {2, 4, 8, 9, 10, 13, 20, 23};
        if (name == "flex_deployment") name = "bi_analysis";
      } else {
        std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
        return 1;
      }
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: flexbuild --list | [--preset workload2|workload5] "
                   "[--components 1,5,...] [--name N] [--out DIR]\n");
      return arg == "--help" ? 0 : 1;
    }
  }
  if (selection.empty()) {
    PrintList();
    return 0;
  }
  return Generate(selection, name, out_dir);
}
