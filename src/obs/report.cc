/**
 * @file
 * Run-report serialization (JSON/CSV).
 */

#include "obs/report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "support/json.hh"
#include "support/logging.hh"

namespace oma::obs
{

namespace
{

/**
 * A gauge in shortest round-trip form. JSON has no literal for
 * non-finite values, so those serialize as strings ("inf", "-inf",
 * "nan") — reports must stay parseable whatever a gauge held.
 */
void
appendGauge(std::string &out, double v)
{
    if (std::isfinite(v))
        appendJsonReal(out, v);
    else
        appendJsonString(out, v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
}

void
appendHistogram(std::string &out, const Histogram &h)
{
    out += "{\n      \"count\": ";
    appendJsonU64(out, h.count);
    out += ",\n      \"sum\": ";
    appendJsonU64(out, h.sum);
    out += ",\n      \"min\": ";
    appendJsonU64(out, h.count ? h.min : 0);
    out += ",\n      \"max\": ";
    appendJsonU64(out, h.count ? h.max : 0);
    out += ",\n      \"mean\": ";
    appendJsonReal(out, h.mean());
    out += ",\n      \"buckets\": {";
    const char *sep = "";
    for (unsigned b = 0; b < Histogram::numBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        out += sep;
        sep = ", ";
        appendJsonString(out, std::to_string(Histogram::bucketBound(b)));
        out += ": ";
        appendJsonU64(out, h.buckets[b]);
    }
    out += "}\n    }";
}

} // namespace

RunReport::RunReport(std::string report_name)
    : name(std::move(report_name))
{
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_' || c == '-';
        fatalIf(!ok, "run-report name must match [A-Za-z0-9_-]: " +
                    name);
    }
    fatalIf(name.empty(), "run-report name must not be empty");
}

void
RunReport::writeJson(std::ostream &os) const
{
    std::string out = "{\n  \"schema\": \"oma-run-report-v1\",\n  \"name\": ";
    appendJsonString(out, name);
    // One object per section, a member per line; an empty section
    // closes on its own line as "{}".
    const auto section = [&out](const char *title, const auto &members,
                                const auto &append_value) {
        out += ",\n  \"";
        out += title;
        out += "\": {";
        const char *sep = "\n    ";
        for (const auto &[key, value] : members) {
            out += sep;
            sep = ",\n    ";
            appendJsonString(out, key);
            out += ": ";
            append_value(value);
        }
        out += members.empty() ? "}" : "\n  }";
    };
    section("meta", meta, [&out](const std::string &v) {
        appendJsonString(out, v);
    });
    section("counters", metrics.counters(),
            [&out](std::uint64_t v) { appendJsonU64(out, v); });
    section("gauges", metrics.gauges(),
            [&out](double v) { appendGauge(out, v); });
    section("histograms", metrics.histograms(),
            [&out](const Histogram &h) { appendHistogram(out, h); });
    out += "\n}\n";
    os << out;
}

void
RunReport::writeCsv(std::ostream &os) const
{
    // CSV values never need quoting: names are [A-Za-z0-9_/-] paths
    // and values are numbers; meta strings are the one exception and
    // are quoted unconditionally, with each embedded '"' doubled (RFC
    // 4180: a comma or newline inside the quotes is then plain data).
    os << "kind,name,value\n";
    for (const auto &[key, value] : meta) {
        os << "meta," << key << ",\"";
        for (const char c : value) {
            if (c == '"')
                os << '"';
            os << c;
        }
        os << "\"\n";
    }
    for (const auto &[key, value] : metrics.counters())
        os << "counter," << key << "," << value << "\n";
    for (const auto &[key, value] : metrics.gauges()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        os << "gauge," << key << "," << buf << "\n";
    }
    for (const auto &[key, hist] : metrics.histograms()) {
        os << "histogram," << key << "/count," << hist.count << "\n"
           << "histogram," << key << "/sum," << hist.sum << "\n";
    }
}

std::string
RunReport::fileName() const
{
    return "BENCH_" + name + ".json";
}

std::string
RunReport::save(const std::string &dir) const
{
    if (const char *env = std::getenv("OMA_RUN_REPORT")) {
        if (std::string(env) == "0")
            return "";
    }
    std::string out_dir = dir;
    if (out_dir.empty()) {
        const char *env = std::getenv("OMA_RUN_REPORT_DIR");
        out_dir = (env != nullptr && *env != '\0') ? env : ".";
    }
    const std::string path = out_dir + "/" + fileName();
    std::ofstream os(path);
    if (!os) {
        // A read-only working directory must not kill the run the
        // report merely describes.
        warn("cannot write run report: " + path);
        return "";
    }
    writeJson(os);
    os.flush();
    if (!os) {
        warn("short write on run report: " + path);
        return "";
    }
    return path;
}

} // namespace oma::obs
