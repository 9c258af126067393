/**
 * @file
 * oma_serve socket-transport robustness: the daemon binary itself,
 * driven over its Unix-domain socket.
 *
 * A client that sends a request and closes before reading the reply
 * must not kill the daemon (it used to die of SIGPIPE, exit 141); a
 * client that sends more than api::maxRequestBytes gets one
 * oma-error-v1 line instead of an unbounded read; and a client that
 * never half-closes is cut off at api::requestReadTimeoutMs instead
 * of stalling every client behind it. Each failure is counted in
 * `serve/client_errors`. A client that sends garbage bytes gets one
 * parseable oma-error-v1 line. After every fault the next
 * well-formed query gets the byte-identical answer a clean run
 * gives. A SIGTERM mid-batch lets the daemon answer the client in
 * flight and the one queued behind it, then exit 0 with the socket
 * unlinked and its run report saved.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/request.hh"
#include "support/clock.hh"
#include "support/json.hh"

namespace oma::api
{
namespace
{

namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    const std::string root = testing::TempDir() + "/oma_sock_" + name +
        "." + std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);
    return root;
}

/** A small real allocation query. */
std::string
queryLine()
{
    AllocationRequest request;
    request.workloads = {BenchmarkId::Mab};
    request.references = 20000;
    request.space.tlbEntries = {64};
    request.space.tlbWays = {1};
    request.space.tlbFullAssocMax = 64;
    request.space.cacheKBytes = {2, 4};
    request.space.lineWords = {4};
    request.space.cacheWays = {1, 2};
    request.topK = 3;
    request.threads = 1;
    return encodeRequest(request);
}

/** Connected client socket on @p path, or -1. */
int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // oma-lint: allow(cast-audit): POSIX connect takes the generic
    // sockaddr view of sockaddr_un.
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::send(fd, data.data() + done,
                                 data.size() - done, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        done += std::size_t(n);
    }
    return true;
}

/** One well-behaved exchange: send, half-close, read to EOF. */
std::string
ask(const std::string &path, const std::string &text)
{
    const int fd = connectTo(path);
    EXPECT_GE(fd, 0) << "daemon is not accepting on " << path;
    if (fd < 0)
        return {};
    EXPECT_TRUE(sendAll(fd, text));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        reply.append(buf, std::size_t(n));
    ::close(fd);
    return reply;
}

/** The answer `oma_serve --once` gives @p line on a fresh store. */
std::string
onceAnswer(const std::string &line)
{
    const std::string dir = scratchDir("once");
    const std::string in_path = dir + "/request.ndjson";
    {
        std::ofstream in(in_path, std::ios::binary);
        in << line << '\n';
    }
    const std::string command = "OMA_RUN_REPORT=0 '" OMA_SERVE_BIN
        "' --once --store-dir '" + dir + "/store' < '" + in_path +
        "' 2>/dev/null";
    FILE *pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        output.append(buffer, got);
    EXPECT_EQ(::pclose(pipe), 0);
    fs::remove_all(dir);
    return output;
}

/** Fork and exec the socket daemon on @p sock, its store and run
 * report under @p dir; returns once the socket exists. */
pid_t
startDaemon(const std::string &dir, const std::string &sock)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("OMA_RUN_REPORT_DIR", dir.c_str(), 1);
        ::unsetenv("OMA_RUN_REPORT");
        ::execl(OMA_SERVE_BIN, OMA_SERVE_BIN, "--socket", sock.c_str(),
                "--store-dir", (dir + "/store").c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    for (int i = 0; pid > 0 && i < 200 && !fs::exists(sock); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return pid;
}

/** Require that the daemon @p pid exits 0 (not by a signal). */
void
expectCleanExit(pid_t pid)
{
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "daemon died of a signal";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/** The `serve/client_errors` counter of the run report the daemon
 * saved under @p dir (-1 when the report is missing or unreadable). */
double
reportedClientErrors(const std::string &dir)
{
    std::ifstream report(dir + "/BENCH_oma_serve.json");
    if (!report.good())
        return -1.0;
    std::stringstream text;
    text << report.rdbuf();
    JsonValue doc;
    std::string error;
    const JsonValue *counters =
        parseJson(text.str(), doc, error) ? doc.find("counters") : nullptr;
    const JsonValue *errors = counters != nullptr
        ? counters->find("serve/client_errors") : nullptr;
    double count = -1.0;
    return errors != nullptr && errors->asReal(count) ? count : -1.0;
}

/** Ask the daemon to shut down, require a clean exit, and return the
 * `serve/client_errors` counter of its run report. */
double
stopDaemon(pid_t pid, const std::string &dir, const std::string &sock)
{
    const std::string ack =
        ask(sock, "{\"schema\":\"oma-control-v1\",\"cmd\":\"shutdown\"}\n");
    EXPECT_NE(ack.find("oma-control-v1"), std::string::npos);
    expectCleanExit(pid);
    return reportedClientErrors(dir);
}

/** Half-close @p fd, read its reply to EOF and close it. */
std::string
finishExchange(int fd)
{
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        reply.append(buf, std::size_t(n));
    ::close(fd);
    return reply;
}

TEST(ServeSocket, EarlyHangUpDoesNotKillTheDaemon)
{
    const std::string dir = scratchDir("hangup");
    const std::string sock = dir + "/serve.sock";
    const std::string line = queryLine();
    const pid_t pid = startDaemon(dir, sock);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(fs::exists(sock));

    // The rude client: request sent, connection closed unread.
    {
        const int fd = connectTo(sock);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(sendAll(fd, line + "\n"));
        ::close(fd);
    }

    // The next client is served, byte for byte as a clean run.
    EXPECT_EQ(ask(sock, line + "\n"), onceAnswer(line));

    // The hang-up is on the record.
    EXPECT_EQ(stopDaemon(pid, dir, sock), 1.0);
    fs::remove_all(dir);
}

TEST(ServeSocket, OversizedRequestIsRefusedAndTheDaemonServesOn)
{
    const std::string dir = scratchDir("oversized");
    const std::string sock = dir + "/serve.sock";
    const std::string line = queryLine();
    const pid_t pid = startDaemon(dir, sock);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(fs::exists(sock));

    // One byte over the cap, then a half-close: exactly one
    // oma-error-v1 line comes back.
    const std::string reply =
        ask(sock, std::string(maxRequestBytes + 1, ' '));
    EXPECT_EQ(reply,
              encodeError("request exceeds " +
                          std::to_string(maxRequestBytes) + " bytes") +
                  "\n");

    // The next client is served, byte for byte as a clean run.
    EXPECT_EQ(ask(sock, line + "\n"), onceAnswer(line));

    EXPECT_EQ(stopDaemon(pid, dir, sock), 1.0);
    fs::remove_all(dir);
}

TEST(ServeSocket, StalledClientIsCutOffAtTheReadDeadline)
{
    const std::string dir = scratchDir("stalled");
    const std::string sock = dir + "/serve.sock";
    const std::string line = queryLine();
    const std::string once = onceAnswer(line);
    const pid_t pid = startDaemon(dir, sock);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(fs::exists(sock));

    // The stalled client: a whole request line, but no half-close.
    const int stalled = connectTo(sock);
    ASSERT_GE(stalled, 0);
    ASSERT_TRUE(sendAll(stalled, line + "\n"));

    // A second client queues behind it and is served once the
    // deadline cuts the first one off — not later.
    const std::int64_t start_ns = Clock::nowNs();
    EXPECT_EQ(ask(sock, line + "\n"), once);
    EXPECT_LT(Clock::toMs(Clock::nowNs() - start_ns),
              requestReadTimeoutMs + 3000.0);

    // The stalled client got exactly one error line, then EOF.
    std::string reply;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(stalled, buf, sizeof buf)) > 0)
        reply.append(buf, std::size_t(n));
    ::close(stalled);
    EXPECT_EQ(reply, encodeError("request not completed within " +
                                 std::to_string(requestReadTimeoutMs) +
                                 " ms") +
                         "\n");

    // The daemon serves on, byte for byte as a clean run.
    EXPECT_EQ(ask(sock, line + "\n"), once);

    EXPECT_EQ(stopDaemon(pid, dir, sock), 1.0);
    fs::remove_all(dir);
}

TEST(ServeSocket, GarbageBytesGetOneErrorLineAndTheDaemonServesOn)
{
    const std::string dir = scratchDir("garbage");
    const std::string sock = dir + "/serve.sock";
    const std::string line = queryLine();
    const std::string once = onceAnswer(line);
    const pid_t pid = startDaemon(dir, sock);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(fs::exists(sock));

    // NUL, 0xff, a truncated document and a bare '}' on one
    // connection, then a half-close.
    const std::string garbage = std::string("\0\xff", 2) +
        line.substr(0, line.size() / 2) + "}";
    const std::string reply = ask(sock, garbage);

    // Exactly one line, and it is a well-formed oma-error-v1 answer.
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(reply.substr(0, reply.size() - 1), doc, error))
        << error;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string, "oma-error-v1");

    // The daemon serves on, byte for byte as a clean run.
    EXPECT_EQ(ask(sock, line + "\n"), once);

    // A malformed request is answered, not a client failure.
    EXPECT_EQ(stopDaemon(pid, dir, sock), 0.0);
    fs::remove_all(dir);
}

TEST(ServeSocket, SigtermMidBatchAnswersTheBatchThenExitsCleanly)
{
    const std::string dir = scratchDir("sigterm");
    const std::string sock = dir + "/serve.sock";
    const std::string line = queryLine();
    const std::string once = onceAnswer(line);
    const pid_t pid = startDaemon(dir, sock);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(fs::exists(sock));

    // Client A's request is in flight (sent, not yet half-closed);
    // client B has connected and sent its request behind it.
    const int in_flight = connectTo(sock);
    ASSERT_GE(in_flight, 0);
    ASSERT_TRUE(sendAll(in_flight, line + "\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int queued = connectTo(sock);
    ASSERT_GE(queued, 0);
    ASSERT_TRUE(sendAll(queued, line + "\n"));

    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    // Both get their full answer, byte for byte as a clean run.
    EXPECT_EQ(finishExchange(in_flight), once);
    EXPECT_EQ(finishExchange(queued), once);

    // Then the daemon exits 0, the socket is gone and the run report
    // parses, with no client failure on it.
    expectCleanExit(pid);
    EXPECT_FALSE(fs::exists(sock));
    EXPECT_LT(connectTo(sock), 0);
    EXPECT_EQ(reportedClientErrors(dir), 0.0);
    fs::remove_all(dir);
}

} // namespace
} // namespace oma::api
