#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

/// Shared command line, pretty-printing and JSON host stamp of the benches.

namespace benchutil {

/// The command line of a bench that takes `--smoke` and `--json <path>`.
struct Cli {
  const char* name;          ///< Program name, prefixed to error messages.
  const char* usage;         ///< Printed by --help and after every error.
  const char* default_json;  ///< --json value when the flag is absent.
  bool gate = false;         ///< Also accept `--gate <path>`.
  std::size_t max_positional = 0;
};

struct Args {
  bool smoke = false;
  std::string json_path;
  std::string gate_path;  ///< Empty unless --gate was given.
  std::vector<std::string> positional;
};

[[noreturn]] inline void usage_error(const Cli& cli, const std::string& msg) {
  std::cerr << cli.name << ": " << msg << "\n" << cli.usage;
  std::exit(2);
}

/// Parses --smoke, --json <path>, --help/-h (usage to stdout, exit 0), and
/// what `cli` allows beyond them. An unknown option, a flag missing its
/// value or a surplus positional argument prints the usage and exits 2.
inline Args parse_args(const Cli& cli, int argc, char** argv) {
  Args args;
  args.json_path = cli.default_json;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << cli.usage;
      std::exit(0);
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--json" || (cli.gate && arg == "--gate")) {
      if (i + 1 >= argc) usage_error(cli, std::string(arg) + " needs a value");
      (arg == "--json" ? args.json_path : args.gate_path) = argv[++i];
    } else if (arg.size() > 1 && arg[0] == '-') {
      usage_error(cli, "unknown option '" + std::string(arg) + "'");
    } else if (args.positional.size() < cli.max_positional) {
      args.positional.emplace_back(arg);
    } else {
      usage_error(cli, "unexpected argument '" + std::string(arg) + "'");
    }
  }
  return args;
}

/// Concatenates `parts` by appending. (`"literal" + std::string` trips a
/// GCC 12 -Wrestrict false positive in Release builds.)
inline std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out.append(part);
  return out;
}

/// Host and build stamp, as one JSON object: hardware threads, CPU model,
/// compiler, build type and `git describe` of the working directory.
inline std::string stamp_json() {
  std::string cpu = "unknown", git;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0 && line.find(": ") != line.npos) {
      cpu = line.substr(line.find(": ") + 2);
      break;
    }
  const std::unique_ptr<FILE, int (*)(FILE*)> pipe(
      popen("git describe --always --dirty 2>/dev/null", "r"), pclose);
  for (int c; pipe && (c = std::fgetc(pipe.get())) != EOF;)
    if (std::isgraph(c)) git += static_cast<char>(c);
  // Quotes and backslashes are dropped, so every value is a plain string.
  const auto field = [](const char* key, std::string value) {
    std::erase_if(value, [](char c) { return c == '"' || c == '\\'; });
    return cat({", \"", key, "\": \"", value, "\""});
  };
  return cat({"{\"nproc\": ",
              std::to_string(std::thread::hardware_concurrency()),
              field("cpu", cpu), field("compiler", HBOSIM_BENCH_COMPILER),
              field("build_type", HBOSIM_BENCH_BUILD_TYPE),
              field("git_describe", git.empty() ? "unknown" : git), "}"});
}

inline void banner(const std::string& artefact, const std::string& what) {
  std::cout << "\n================================================================\n"
            << artefact << " — " << what << "\n"
            << "================================================================\n";
}

inline void section(const std::string& name) {
  std::cout << "\n--- " << name << " ---\n";
}

inline void recap_line(const std::string& metric, const std::string& paper,
                       const std::string& measured) {
  std::cout << "  " << metric << ": paper=" << paper
            << "  measured=" << measured << "\n";
}

}  // namespace benchutil
