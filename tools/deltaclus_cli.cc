// The deltaclus command-line tool; all logic lives in src/cli/cli.cc so
// the test suite can exercise it in-process.
#include <iostream>
#include <string>
#include <vector>

#include "src/cli/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return deltaclus::RunCli(args, std::cout, std::cerr);
}
