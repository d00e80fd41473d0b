// Work in fresh child processes.
//
// The end-to-end run replays each daemon repetition in a fork()ed child, so
// every repetition starts from the same heap, and measures peak RSS in a
// child that does nothing else; set-up simulates its repetitions in
// concurrent children. Results come back as key/value fields through a pipe
// and the peak RSS through wait4(). The parent stays single-threaded, which
// keeps fork() safe; a child dies with its parent (PR_SET_PDEATHSIG).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Key/value results a child reports back.
using Fields = std::map<std::string, std::string>;

struct ChildResult {
  bool ok = false;        // exited 0 and reported
  std::string error;      // why not, when !ok
  Fields fields;
  double peak_rss_mb = 0;  // the child's ru_maxrss
};

// Runs `body` in a forked child and returns what it reported. An exception
// in `body` is reported as an error, never rethrown in the parent.
ChildResult run_in_child(const std::function<Fields()>& body);

// Runs body(0) .. body(n - 1) in n concurrent children.
std::vector<ChildResult> run_in_children(int n,
                                         const std::function<Fields(int)>& body);

// A double as text with every digit, and back; 0 when absent.
std::string number_text(double v);
double number_field(const Fields& fields, const std::string& key);

// A reported hex digest; 0 when absent.
std::uint64_t digest_field(const Fields& fields, const std::string& key);

}  // namespace perfbench
