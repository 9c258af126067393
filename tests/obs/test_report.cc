/**
 * @file
 * Run-report serialization tests: the JSON output must be
 * schema-valid (oma-run-report-v1), the CSV flat and complete, and
 * save() must honor the OMA_RUN_REPORT / OMA_RUN_REPORT_DIR knobs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/report.hh"
#include "support/json.hh"

namespace oma::obs
{
namespace
{


RunReport
sampleReport()
{
    RunReport report("unit_sample");
    report.meta["benchmark"] = "mab";
    report.meta["os"] = "mach3";
    report.metrics.add("icache/misses", 42);
    report.metrics.add("dcache/misses", 7);
    report.metrics.set("rate/refs_per_sec", 1.5e6);
    report.metrics.accumulate("time_ms/total", 12.5);
    report.metrics.observe("tlb/refills", 3);
    report.metrics.observe("tlb/refills", 300);
    return report;
}

std::string
toJson(const RunReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

/** @p text parsed by the strict codec; a failed parse fails the
 * test and yields a Null value. */
JsonValue
parsed(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, doc, error)) << error;
    return doc;
}

/** The value reached from @p v through the object members @p keys
 * (a missing member throws, which fails the test). */
const JsonValue &
at(const JsonValue &v, std::initializer_list<std::string_view> keys)
{
    const JsonValue *cur = &v;
    for (const std::string_view key : keys) {
        cur = cur->find(key);
        if (cur == nullptr)
            throw std::out_of_range("no member " + std::string(key));
    }
    return *cur;
}

TEST(RunReportDeath, RejectsUnsafeNames)
{
    // The name becomes a file name verbatim; anything outside
    // [A-Za-z0-9_-] must be refused at construction.
    EXPECT_EXIT(RunReport("../escape"), testing::ExitedWithCode(1),
                "A-Za-z0-9_-");
    EXPECT_EXIT(RunReport("has space"), testing::ExitedWithCode(1),
                "A-Za-z0-9_-");
    EXPECT_EXIT(RunReport(""), testing::ExitedWithCode(1),
                "must not be empty");
}

TEST(RunReport, FileNameFollowsTheBenchConvention)
{
    EXPECT_EQ(RunReport("table1").fileName(), "BENCH_table1.json");
}

TEST(RunReport, JsonIsWellFormedAndSchemaTagged)
{
    const JsonValue doc = parsed(toJson(sampleReport()));
    EXPECT_EQ(at(doc, {"schema"}).string, "oma-run-report-v1");
    EXPECT_EQ(at(doc, {"name"}).string, "unit_sample");
    // All four sections are present even when some are empty.
    EXPECT_NE(doc.find("meta"), nullptr);
    EXPECT_NE(doc.find("counters"), nullptr);
    EXPECT_NE(doc.find("gauges"), nullptr);
    EXPECT_NE(doc.find("histograms"), nullptr);
}

TEST(RunReport, JsonCarriesEveryMetric)
{
    const JsonValue doc = parsed(toJson(sampleReport()));
    EXPECT_EQ(at(doc, {"meta", "benchmark"}).string, "mab");
    EXPECT_EQ(at(doc, {"meta", "os"}).string, "mach3");
    EXPECT_EQ(at(doc, {"counters", "icache/misses"}).number, "42");
    EXPECT_EQ(at(doc, {"counters", "dcache/misses"}).number, "7");
    EXPECT_EQ(at(doc, {"gauges", "rate/refs_per_sec"}).number, "1500000");
    EXPECT_EQ(at(doc, {"gauges", "time_ms/total"}).number, "12.5");
    const JsonValue &refills = at(doc, {"histograms", "tlb/refills"});
    EXPECT_EQ(at(refills, {"count"}).number, "2");
    EXPECT_EQ(at(refills, {"sum"}).number, "303");
    EXPECT_EQ(at(refills, {"min"}).number, "3");
    EXPECT_EQ(at(refills, {"max"}).number, "300");
    EXPECT_NE(refills.find("buckets"), nullptr);
}

TEST(RunReport, EmptyReportIsStillValidJson)
{
    const JsonValue doc = parsed(toJson(RunReport("empty")));
    EXPECT_EQ(at(doc, {"schema"}).string, "oma-run-report-v1");
}

TEST(RunReport, EscapesHostileMetaStrings)
{
    RunReport report("escapes");
    report.meta["cmd"] = "a\"b\\c\nd\te";
    const JsonValue doc = parsed(toJson(report));
    EXPECT_EQ(at(doc, {"meta", "cmd"}).string, "a\"b\\c\nd\te");
}

TEST(RunReport, NonFiniteGaugesSerializeAsStrings)
{
    // JSON has no inf/nan literals; a gauge that held one must not
    // produce an unparseable document.
    RunReport report("nonfinite");
    report.metrics.set("g/pos", std::numeric_limits<double>::infinity());
    report.metrics.set("g/neg",
                       -std::numeric_limits<double>::infinity());
    report.metrics.set("g/nan",
                       std::numeric_limits<double>::quiet_NaN());
    const JsonValue doc = parsed(toJson(report));
    EXPECT_EQ(at(doc, {"gauges", "g/pos"}).string, "inf");
    EXPECT_EQ(at(doc, {"gauges", "g/neg"}).string, "-inf");
    EXPECT_EQ(at(doc, {"gauges", "g/nan"}).string, "nan");
}

TEST(RunReport, SerializationIsDeterministic)
{
    // Ordered maps underneath: two passes over the same report are
    // textually identical.
    const RunReport report = sampleReport();
    EXPECT_EQ(toJson(report), toJson(report));
}

TEST(RunReport, JsonLayoutIsPinnedByteForByte)
{
    // Every value here prints the same under any exact number form
    // (integers and dyadic fractions), so the bytes pin the layout
    // and the string escapes, not a float formatting choice.
    RunReport report("golden");
    report.meta["cmd"] = "oma \"q\" a\\b\nc\td";
    report.meta["os"] = "mach3";
    report.metrics.add("icache/misses", 42);
    report.metrics.add("big", std::numeric_limits<std::uint64_t>::max());
    report.metrics.set("rate/refs_per_sec", 1.5e6);
    report.metrics.set("frac", 0.375);
    report.metrics.set("neg", -2.0);
    report.metrics.observe("tlb/refills", 3);
    report.metrics.observe("tlb/refills", 300);
    EXPECT_EQ(toJson(report), R"({
  "schema": "oma-run-report-v1",
  "name": "golden",
  "meta": {
    "cmd": "oma \"q\" a\\b\nc\td",
    "os": "mach3"
  },
  "counters": {
    "big": 18446744073709551615,
    "icache/misses": 42
  },
  "gauges": {
    "frac": 0.375,
    "neg": -2,
    "rate/refs_per_sec": 1500000
  },
  "histograms": {
    "tlb/refills": {
      "count": 2,
      "sum": 303,
      "min": 3,
      "max": 300,
      "mean": 151.5,
      "buckets": {"4": 1, "512": 1}
    }
  }
}
)");
    EXPECT_EQ(toJson(RunReport("empty")), R"({
  "schema": "oma-run-report-v1",
  "name": "empty",
  "meta": {},
  "counters": {},
  "gauges": {},
  "histograms": {}
}
)");
}

TEST(RunReport, GaugesRoundTripBitExactly)
{
    const double values[] = {
        0.1,
        1e-300,
        std::numeric_limits<double>::denorm_min(),
        -0.0,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        1.0 / 3.0,
    };
    RunReport report("roundtrip");
    for (std::size_t i = 0; i < std::size(values); ++i)
        report.metrics.set("g/" + std::to_string(i), values[i]);
    const JsonValue doc = parsed(toJson(report));
    for (std::size_t i = 0; i < std::size(values); ++i) {
        const JsonValue &g = at(doc, {"gauges", "g/" + std::to_string(i)});
        double back = 1.0;
        ASSERT_TRUE(g.asReal(back)) << i << ": " << g.number;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(values[i]))
            << i << ": " << g.number;
    }
}

TEST(RunReport, CsvListsEveryRow)
{
    std::ostringstream os;
    sampleReport().writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("kind,name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("meta,benchmark,\"mab\"\n"), std::string::npos);
    EXPECT_NE(csv.find("counter,icache/misses,42\n"),
              std::string::npos);
    EXPECT_NE(csv.find("gauge,time_ms/total,12.5\n"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,tlb/refills/count,2\n"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,tlb/refills/sum,303\n"),
              std::string::npos);
}

/** Minimal RFC 4180 reader: records of fields, a quoted field may
 * hold commas, newlines and doubled quotes. */
std::vector<std::vector<std::string>>
readCsv(std::string_view text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c != '"')
                field += c;
            else if (i + 1 < text.size() && text[i + 1] == '"')
                field += text[++i];
            else
                quoted = false;
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c == '\n') {
            row.push_back(std::move(field));
            field.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            field += c;
        }
    }
    EXPECT_FALSE(quoted) << "unterminated quoted field";
    EXPECT_TRUE(row.empty() && field.empty()) << "unterminated record";
    return rows;
}

TEST(RunReport, CsvMetaValuesSurviveQuotesAndNewlines)
{
    RunReport report("unit_csv");
    report.meta["quote"] = "say \"hi\"\n";
    std::ostringstream os;
    report.writeCsv(os);
    EXPECT_EQ(os.str(),
              "kind,name,value\n"
              "meta,quote,\"say \"\"hi\"\"\n\"\n");

    const std::vector<std::vector<std::string>> rows = readCsv(os.str());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0],
              (std::vector<std::string>{"kind", "name", "value"}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"meta", "quote",
                                                 "say \"hi\"\n"}));
}

TEST(RunReport, SaveWritesIntoTheRequestedDirectory)
{
    const std::string path = sampleReport().save(".");
    ASSERT_EQ(path, "./BENCH_unit_sample.json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream read_back;
    read_back << in.rdbuf();
    EXPECT_EQ(at(parsed(read_back.str()), {"name"}).string, "unit_sample");
    std::remove(path.c_str());
}

TEST(RunReport, SaveHonorsTheDisableKnob)
{
    ASSERT_EQ(setenv("OMA_RUN_REPORT", "0", 1), 0);
    EXPECT_EQ(sampleReport().save("."), "");
    ASSERT_EQ(unsetenv("OMA_RUN_REPORT"), 0);
}

TEST(RunReport, SaveHonorsTheDirEnvVariable)
{
    ASSERT_EQ(setenv("OMA_RUN_REPORT_DIR", ".", 1), 0);
    const std::string path = sampleReport().save();
    EXPECT_EQ(path, "./BENCH_unit_sample.json");
    ASSERT_EQ(unsetenv("OMA_RUN_REPORT_DIR"), 0);
    std::remove(path.c_str());
}

TEST(RunReport, SaveToUnwritablePathWarnsButSurvives)
{
    EXPECT_EQ(sampleReport().save("/nonexistent-dir-for-oma-test"),
              "");
}

} // namespace
} // namespace oma::obs
