/**
 * @file
 * oma_serve: allocation-as-a-service over the oma::api facade.
 *
 * Speaks NDJSON: each request line is one oma-allocation-request-v1
 * object, each answer line the matching response (or oma-error-v1).
 * Two transports share the QueryEngine serving discipline
 * (docs/MODEL.md §14):
 *
 *  * `--once` reads requests from stdin until EOF and writes the
 *    answers to stdout in input order — no networking, so CI and the
 *    e2e tests drive the full daemon path through a pipe.
 *  * Otherwise the daemon binds a Unix-domain socket (`--socket`),
 *    answers one connection at a time (the client half-closes after
 *    its last line) and keeps running until a control line
 *    `{"schema":"oma-control-v1","cmd":"shutdown"}` arrives or a
 *    SIGTERM/SIGINT asks it to stop. A stop signal is only taken
 *    while the daemon waits for a connection, so the connection in
 *    flight is answered in full; then the socket is unlinked, the
 *    connections already queued are answered too, and the daemon
 *    exits 0 with its run report saved. A client
 *    that resets the connection or hangs up before reading its reply,
 *    sends more than api::maxRequestBytes, or has not half-closed
 *    within api::requestReadTimeoutMs (either of the last two gets
 *    one oma-error-v1 line), is counted in `serve/client_errors`; the
 *    daemon serves on.
 *
 * Identical lines in one batch coalesce onto a single computation
 * (`serve/dedup_hits`), repeated questions across batches are served
 * warm from the artifact store (`serve/warm_hits`), and distinct
 * requests compute on at most `--max-inflight` lanes. On exit the
 * daemon saves a run report carrying every serve counter, so CI can
 * gate on the dedupe/warm behaviour (scripts/check_run_report.py).
 */

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "obs/report.hh"
#include "support/clock.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace
{

using namespace oma;

struct ServeOptions
{
    bool once = false;
    std::string socketPath = "oma_serve.sock";
    std::string storeDir;
    std::string reportName = "oma_serve";
    unsigned maxInflight = 4;
    std::size_t maxBatch = 64;
};

void
usage()
{
    std::cerr
        << "usage: oma_serve [--once] [--socket PATH]\n"
        << "                 [--store-dir DIR] [--max-inflight N]\n"
        << "                 [--max-batch N] [--report NAME]\n"
        << "\n"
        << "Answers oma-allocation-request-v1 NDJSON lines with\n"
        << "oma-allocation-response-v1 lines, one per request, in\n"
        << "input order.\n"
        << "  --once          serve stdin -> stdout, exit at EOF\n"
        << "  --socket PATH   Unix-domain socket to listen on\n"
        << "                  (default oma_serve.sock)\n"
        << "  --store-dir DIR artifact store root (default: the\n"
        << "                  OMA_STORE_DIR environment variable)\n"
        << "  --max-inflight N  distinct requests computed\n"
        << "                  concurrently per batch (default 4)\n"
        << "  --max-batch N   requests admitted per batch; the rest\n"
        << "                  are refused with an error (default 64)\n"
        << "  --report NAME   run-report name (default oma_serve)\n";
}

ServeOptions
parseOptions(int argc, char **argv)
{
    ServeOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            fatalIf(i + 1 >= argc, "oma_serve: " + arg +
                    " requires a value");
            return argv[++i];
        };
        if (arg == "--once") {
            opt.once = true;
        } else if (arg == "--socket") {
            opt.socketPath = value();
        } else if (arg == "--store-dir") {
            opt.storeDir = value();
        } else if (arg == "--report") {
            opt.reportName = value();
        } else if (arg == "--max-inflight") {
            opt.maxInflight =
                unsigned(std::strtoul(value().c_str(), nullptr, 10));
            fatalIf(opt.maxInflight == 0,
                    "oma_serve: --max-inflight must be positive");
        } else if (arg == "--max-batch") {
            opt.maxBatch = std::strtoull(value().c_str(), nullptr, 10);
            fatalIf(opt.maxBatch == 0,
                    "oma_serve: --max-batch must be positive");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("oma_serve: unknown option " + arg);
        }
    }
    return opt;
}

/** True when @p line is a well-formed oma-control-v1 shutdown. */
bool
isShutdownLine(const std::string &line)
{
    JsonValue value;
    std::string error;
    if (!parseJson(line, value, error))
        return false;
    const JsonValue *schema = value.find("schema");
    const JsonValue *cmd = value.find("cmd");
    return schema != nullptr && cmd != nullptr &&
        schema->kind == JsonValue::Kind::String &&
        schema->string == "oma-control-v1" &&
        cmd->kind == JsonValue::Kind::String &&
        cmd->string == "shutdown";
}

/** The ack a control line earns. */
std::string
controlAck()
{
    return "{\"schema\":\"oma-control-v1\",\"ok\":true}";
}

/**
 * Answer one batch of raw lines: control lines are acked in place,
 * the rest go through QueryEngine::answerBatch. Returns the answers
 * in input order and sets @p shutdown when a shutdown line appeared.
 */
std::vector<std::string>
serveBatch(api::QueryEngine &engine, const std::vector<std::string> &lines,
           obs::Observation *observation, bool &shutdown)
{
    std::vector<std::string> answers(lines.size());
    std::vector<std::string> queries;
    std::vector<std::size_t> queryLines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (isShutdownLine(lines[i])) {
            shutdown = true;
            answers[i] = controlAck();
            continue;
        }
        queries.push_back(lines[i]);
        queryLines.push_back(i);
    }
    const std::vector<std::string> batch_answers =
        engine.answerBatch(queries, observation);
    for (std::size_t q = 0; q < queryLines.size(); ++q)
        answers[queryLines[q]] = batch_answers[q];
    return answers;
}

/** Split @p text into newline-terminated records, skipping blanks. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(start, end - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            lines.push_back(std::move(line));
        start = end + 1;
    }
    return lines;
}

/** How one client's request read ended. */
enum class ReadResult
{
    Complete, //!< EOF within api::maxRequestBytes.
    Failed,   //!< The client reset the connection.
    TooLarge, //!< More than api::maxRequestBytes arrived.
    TimedOut, //!< No EOF within api::requestReadTimeoutMs.
};

/** Read until EOF on @p fd into @p text, stopping as soon as the
 * request exceeds api::maxRequestBytes or the connection's read
 * deadline passes. Before each read, SO_RCVTIMEO is set to the time
 * left, so the deadline bounds the whole request, not each read. */
ReadResult
readRequest(int fd, std::string &text)
{
    const std::int64_t deadline_ns = Clock::nowNs() +
        std::int64_t(api::requestReadTimeoutMs) * 1000000;
    char buf[4096];
    while (true) {
        const std::int64_t left_us =
            (deadline_ns - Clock::nowNs()) / 1000;
        if (left_us <= 0)
            return ReadResult::TimedOut;
        timeval timeout{};
        timeout.tv_sec = time_t(left_us / 1000000);
        timeout.tv_usec = suseconds_t(left_us % 1000000);
        if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout) != 0)
            return ReadResult::Failed;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            text.append(buf, std::size_t(n));
            if (text.size() > api::maxRequestBytes)
                return ReadResult::TooLarge;
            continue;
        }
        if (n == 0)
            return ReadResult::Complete;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return ReadResult::TimedOut;
        return ReadResult::Failed;
    }
}

/** Send all of @p data on socket @p fd; false when the client has
 * gone. MSG_NOSIGNAL turns a hang-up into EPIPE instead of a SIGPIPE
 * that would kill the daemon. */
bool
sendAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n > 0) {
            data.remove_prefix(std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** Set by a stop signal (SIGTERM, SIGINT); read by the accept loop. */
// oma-lint: allow(shared-state): the one async-signal-safe handoff
// from the signal handler to the accept loop.
volatile std::sig_atomic_t g_stopRequested = 0;

void
onStopSignal(int)
{
    g_stopRequested = 1;
}

/**
 * Route SIGTERM and SIGINT to onStopSignal and block both in the
 * calling thread, before any other thread exists, so every engine lane
 * inherits the block. Returns the signal mask to wait for connections
 * with: the one place a stop signal is delivered.
 */
sigset_t
blockStopSignals()
{
    struct sigaction action{};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: the connection wait returns EINTR.
    action.sa_flags = 0;
    sigset_t stop;
    sigemptyset(&stop);
    for (const int sig : {SIGTERM, SIGINT}) {
        ::sigaction(sig, &action, nullptr);
        sigaddset(&stop, sig);
    }
    sigset_t wait_mask;
    ::pthread_sigmask(SIG_BLOCK, &stop, &wait_mask);
    sigdelset(&wait_mask, SIGTERM);
    sigdelset(&wait_mask, SIGINT);
    return wait_mask;
}

/** Count one client that failed mid-conversation; the daemon serves
 * on. */
void
clientError(obs::Observation *observation, const std::string &what)
{
    observation->metrics.add("serve/client_errors");
    inform("oma_serve: client " + what);
}

int
serveOnce(api::QueryEngine &engine, obs::Observation *observation)
{
    std::string text;
    std::string line;
    while (std::getline(std::cin, line)) {
        text += line;
        text.push_back('\n');
    }
    bool shutdown = false;
    const std::vector<std::string> answers =
        serveBatch(engine, splitLines(text), observation, shutdown);
    for (const std::string &answer : answers)
        std::cout << answer << '\n';
    return 0;
}

/** Read one client's request on @p client_fd, answer it and close the
 * connection; sets @p shutdown when the batch held a shutdown line. */
void
serveClient(api::QueryEngine &engine, int client_fd,
            obs::Observation *observation, bool &shutdown)
{
    std::string text;
    std::string reply;
    switch (readRequest(client_fd, text)) {
      case ReadResult::Failed:
        clientError(observation, std::string("read failed: ") +
                    std::strerror(errno));
        ::close(client_fd);
        return;
      case ReadResult::TooLarge: {
        const std::string why = "request exceeds " +
            std::to_string(api::maxRequestBytes) + " bytes";
        clientError(observation, why);
        reply = api::encodeError(why) + '\n';
        break;
      }
      case ReadResult::TimedOut: {
        const std::string why = "request not completed within " +
            std::to_string(api::requestReadTimeoutMs) + " ms";
        clientError(observation, why);
        reply = api::encodeError(why) + '\n';
        break;
      }
      case ReadResult::Complete:
        for (const std::string &answer : serveBatch(
                 engine, splitLines(text), observation, shutdown)) {
            reply += answer;
            reply.push_back('\n');
        }
        break;
    }
    if (!sendAll(client_fd, reply))
        clientError(observation,
                    std::string("hung up before its reply: ") +
                        std::strerror(errno));
    ::close(client_fd);
}

int
serveSocket(api::QueryEngine &engine, const std::string &path,
            const sigset_t &wait_mask, obs::Observation *observation)
{
    fatalIf(path.size() >= sizeof(sockaddr_un{}.sun_path),
            "oma_serve: socket path too long: " + path);
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatalIf(listen_fd < 0, std::string("oma_serve: socket: ") +
            std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    // oma-lint: allow(cast-audit): POSIX bind/accept take the
    // generic sockaddr view of sockaddr_un; the cast is the
    // sanctioned sockets-API idiom and sizeof passes the real type.
    if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0)
        fatal("oma_serve: bind " + path + ": " + std::strerror(errno));
    if (::listen(listen_fd, 16) != 0)
        fatal(std::string("oma_serve: listen: ") + std::strerror(errno));
    inform("oma_serve: listening on " + path);

    // Present (as zero) in every socket-mode report.
    observation->metrics.add("serve/client_errors", 0);
    bool shutdown = false;
    while (!shutdown && g_stopRequested == 0) {
        // Stop signals are deliverable only inside this wait, which
        // they end with EINTR; a signal raised while a client is
        // served stays pending until the loop comes back here.
        pollfd waiting{listen_fd, POLLIN, 0};
        if (::ppoll(&waiting, 1, nullptr, &wait_mask) < 0) {
            if (errno == EINTR)
                continue;
            fatal(std::string("oma_serve: poll: ") +
                  std::strerror(errno));
        }
        const int client_fd = ::accept(listen_fd, nullptr, nullptr);
        if (client_fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            fatal(std::string("oma_serve: accept: ") +
                  std::strerror(errno));
        }
        serveClient(engine, client_fd, observation, shutdown);
    }
    ::unlink(path.c_str());
    if (g_stopRequested != 0) {
        // No new client can find the socket now; answer the ones
        // that already connected, then stop.
        inform("oma_serve: stop signal, draining queued clients");
        ::fcntl(listen_fd, F_SETFL, O_NONBLOCK);
        int client_fd = -1;
        while ((client_fd = ::accept(listen_fd, nullptr, nullptr)) >= 0) {
            // The accepted socket must block like any other client.
            ::fcntl(client_fd, F_SETFL, 0);
            serveClient(engine, client_fd, observation, shutdown);
        }
    }
    ::close(listen_fd);
    inform("oma_serve: shutdown");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeOptions opt = parseOptions(argc, argv);
    // Before the engine exists, so no lane can take a stop signal.
    const sigset_t wait_mask = opt.once ? sigset_t{} : blockStopSignals();
    api::QueryEngineConfig config;
    config.storeDir = opt.storeDir;
    config.maxInflight = opt.maxInflight;
    config.maxBatch = opt.maxBatch;
    api::QueryEngine engine(config);

    obs::RunReport report(opt.reportName);
    report.meta["mode"] = opt.once ? "once" : "socket";
    report.meta["store_dir"] = engine.store() != nullptr
        ? "configured" : "none";
    report.meta["max_inflight"] = std::to_string(opt.maxInflight);
    report.meta["max_batch"] = std::to_string(opt.maxBatch);
    obs::Observation observation;

    const int rc = opt.once
        ? serveOnce(engine, &observation)
        : serveSocket(engine, opt.socketPath, wait_mask, &observation);

    report.metrics.merge(observation.metrics);
    const std::string path = report.save();
    if (!path.empty())
        std::cerr << "[run report: " << path << "]\n";
    return rc;
}
