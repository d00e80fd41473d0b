#include "child.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>

namespace perfbench {

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// "key value\n" lines; values may not contain newlines.
std::string encode(const Fields& fields) {
  std::string out;
  for (const auto& [k, v] : fields) out += k + " " + v + "\n";
  return out;
}

Fields decode(const std::string& text) {
  Fields fields;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  return fields;
}

ChildResult failed(std::string why) {
  ChildResult result;
  result.error = std::move(why);
  return result;
}

// A forked child running `body`, not yet collected.
struct Spawned {
  pid_t pid = -1;
  int fd = -1;  // read end of the child's result pipe
};

Spawned spawn(const std::function<Fields()>& body) {
  // Hand the parent's free heap back first: the child's allocations then
  // take fresh pages instead of copy-on-write copies of whatever pages the
  // parent's earlier work left free, which vary from fork to fork.
  ::malloc_trim(0);
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    // Die with the parent, so a killed run leaves nothing behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(5);
    int status = 0;
    try {
      Fields fields = body();
      fields["ok"].assign(1, '1');
      if (!write_all(fds[1], encode(fields))) status = 3;
    } catch (const std::exception& e) {
      write_all(fds[1], encode({{"error", e.what()}}));
      status = 4;
    } catch (...) {
      status = 4;
    }
    ::close(fds[1]);
    ::_exit(status);  // no static destructors, no stdio flush
  }
  ::close(fds[1]);
  return {pid, fds[0]};
}

ChildResult collect(const Spawned& child) {
  if (child.pid < 0) return failed("fork failed");
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(child.fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(child.fd);

  ChildResult result;
  int status = 0;
  rusage usage{};
  while (::wait4(child.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.fields = decode(text);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              result.fields.count("ok") != 0;
  if (!result.ok) {
    const auto it = result.fields.find("error");
    result.error = it != result.fields.end()
                       ? it->second
                       : "child exited with status " + std::to_string(status);
  }
  return result;
}

}  // namespace

ChildResult run_in_child(const std::function<Fields()>& body) {
  return collect(spawn(body));
}

std::vector<ChildResult> run_in_children(
    int n, const std::function<Fields(int)>& body) {
  std::vector<Spawned> children;
  for (int i = 0; i < n; ++i) {
    children.push_back(spawn([&body, i] { return body(i); }));
  }
  // Each child reports a few lines, far less than a pipe holds, so reading
  // the pipes one after another cannot block a child.
  std::vector<ChildResult> results;
  for (const Spawned& child : children) results.push_back(collect(child));
  return results;
}

std::string number_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double number_field(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::uint64_t digest_field(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0
                            : std::strtoull(it->second.c_str(), nullptr, 16);
}

}  // namespace perfbench
