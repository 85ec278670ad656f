/**
 * @file
 * Guard against wall-clock speedup regressions between two
 * bench_wallclock documents.
 *
 * Compares every `dlsim.wallclock.*speedup` gauge in a fresh
 * BENCH_wallclock.json against the committed one and fails when a
 * gauge regressed by more than the tolerance (default 20%).
 *
 * Speedups are ratios of two runs on the *same* host, so unlike raw
 * seconds they transfer across machines — but only within a host
 * class: a 1-core container cannot reproduce a parallel speedup
 * measured on 16 cores. Host class is judged per run from its
 * `jobs` context value: a run pair whose job counts differ is
 * reported and skipped, never failed.
 *
 * Usage (`bench_guard --help` lists the flags):
 *   bench_guard --committed FILE --fresh FILE [--tolerance 0.20]
 *   bench_guard --self-test
 *
 * Exit codes: 0 ok (or skipped-only), 1 regression, 2 usage/parse
 * error. Missing runs or gauges in the fresh document are reported
 * and skipped — the bench evolves; the guard only judges what both
 * documents measured.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats/flags.hh"

namespace
{

/**
 * Minimal JSON reader for dlsim-metrics-v1 documents. Supports
 * exactly what stats::JsonWriter emits (objects, arrays, strings
 * without exotic escapes, numbers, booleans, null); anything else
 * is a parse error. Deliberately local to this tool: the simulator
 * itself never reads JSON back.
 */
class JsonScanner
{
  public:
    explicit JsonScanner(const std::string &text) : text_(text) {}

    bool
    failed() const
    {
        return failed_;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        failed_ = true;
        return false;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    std::string
    string()
    {
        std::string out;
        if (!consume('"'))
            return out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                const char esc = text_[pos_++];
                switch (esc) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case '/': c = '/'; break;
                default:
                    failed_ = true;
                    return out;
                }
            }
            out.push_back(c);
        }
        consume('"');
        return out;
    }

    double
    number()
    {
        skipWs();
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin) {
            failed_ = true;
            return 0.0;
        }
        pos_ += static_cast<std::size_t>(end - begin);
        return v;
    }

    /** Skip one value of any type (used for fields we ignore). */
    void
    skipValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            failed_ = true;
            return;
        }
        const char c = text_[pos_];
        if (c == '"') {
            string();
        } else if (c == '{') {
            consume('{');
            if (peek('}')) {
                consume('}');
                return;
            }
            do {
                string();
                consume(':');
                skipValue();
            } while (!failed_ && peek(',') && consume(','));
            consume('}');
        } else if (c == '[') {
            consume('[');
            if (peek(']')) {
                consume(']');
                return;
            }
            do {
                skipValue();
            } while (!failed_ && peek(',') && consume(','));
            consume(']');
        } else if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            number();
        }
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

struct RunGauges
{
    std::string jobs; // host-class key ("" when absent)
    std::map<std::string, double> gauges;
};

using Document = std::map<std::string, RunGauges>;

/** Extract every run's context.jobs plus all numeric metric values
 *  (counters and gauges alike; the guard filters by name later). */
bool
parseDocument(const std::string &text, Document &out,
              std::string &error)
{
    JsonScanner s(text);
    if (!s.consume('{')) {
        error = "not a JSON object";
        return false;
    }
    do {
        const std::string key = s.string();
        s.consume(':');
        if (key != "runs") {
            s.skipValue();
            continue;
        }
        s.consume('[');
        if (s.peek(']')) {
            s.consume(']');
            continue;
        }
        do {
            RunGauges run;
            std::string name;
            s.consume('{');
            do {
                const std::string field = s.string();
                s.consume(':');
                if (field == "name") {
                    name = s.string();
                } else if (field == "context") {
                    s.consume('{');
                    if (s.peek('}')) {
                        s.consume('}');
                        continue;
                    }
                    do {
                        const std::string ck = s.string();
                        s.consume(':');
                        const std::string cv = s.string();
                        if (ck == "jobs")
                            run.jobs = cv;
                    } while (!s.failed() && s.peek(',') &&
                             s.consume(','));
                    s.consume('}');
                } else if (field == "metrics") {
                    s.consume('{');
                    if (s.peek('}')) {
                        s.consume('}');
                        continue;
                    }
                    do {
                        const std::string mname = s.string();
                        s.consume(':');
                        s.consume('{');
                        double value = 0.0;
                        do {
                            const std::string mk = s.string();
                            s.consume(':');
                            if (mk == "value")
                                value = s.number();
                            else
                                s.skipValue();
                        } while (!s.failed() && s.peek(',') &&
                                 s.consume(','));
                        s.consume('}');
                        run.gauges[mname] = value;
                    } while (!s.failed() && s.peek(',') &&
                             s.consume(','));
                    s.consume('}');
                } else {
                    s.skipValue();
                }
            } while (!s.failed() && s.peek(',') && s.consume(','));
            s.consume('}');
            if (s.failed()) {
                error = "malformed run object";
                return false;
            }
            out[name] = std::move(run);
        } while (s.peek(',') && s.consume(','));
        s.consume(']');
    } while (!s.failed() && s.peek(',') && s.consume(','));
    s.consume('}');
    if (s.failed()) {
        error = "malformed document";
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out,
         std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
isSpeedupGauge(const std::string &name)
{
    return name.rfind("dlsim.wallclock.", 0) == 0 &&
           name.find("speedup") != std::string::npos;
}

/** Core comparison. Returns the number of regressions; appends a
 *  human-readable report line per gauge to `report`. */
int
compare(const Document &committed, const Document &fresh,
        double tolerance, std::vector<std::string> &report)
{
    int regressions = 0;
    int checked = 0;
    for (const auto &[run, ref] : committed) {
        for (const auto &[metric, want] : ref.gauges) {
            if (!isSpeedupGauge(metric))
                continue;
            char line[256];
            const auto it = fresh.find(run);
            if (it == fresh.end()) {
                std::snprintf(line, sizeof(line),
                              "SKIP  %s %s: run absent from fresh "
                              "document",
                              run.c_str(), metric.c_str());
                report.push_back(line);
                continue;
            }
            if (it->second.jobs != ref.jobs) {
                std::snprintf(
                    line, sizeof(line),
                    "SKIP  %s %s: host class differs (jobs %s vs "
                    "%s)",
                    run.c_str(), metric.c_str(),
                    ref.jobs.empty() ? "?" : ref.jobs.c_str(),
                    it->second.jobs.empty()
                        ? "?"
                        : it->second.jobs.c_str());
                report.push_back(line);
                continue;
            }
            const auto mt = it->second.gauges.find(metric);
            if (mt == it->second.gauges.end()) {
                std::snprintf(line, sizeof(line),
                              "SKIP  %s %s: gauge absent from "
                              "fresh document",
                              run.c_str(), metric.c_str());
                report.push_back(line);
                continue;
            }
            ++checked;
            const double have = mt->second;
            const double floor = want * (1.0 - tolerance);
            if (have < floor) {
                ++regressions;
                std::snprintf(line, sizeof(line),
                              "FAIL  %s %s: %.3f < %.3f "
                              "(committed %.3f, tolerance %.0f%%)",
                              run.c_str(), metric.c_str(), have,
                              floor, want, tolerance * 100.0);
            } else {
                std::snprintf(line, sizeof(line),
                              "OK    %s %s: %.3f vs committed "
                              "%.3f",
                              run.c_str(), metric.c_str(), have,
                              want);
            }
            report.push_back(line);
        }
    }
    if (checked == 0)
        report.push_back("note: no comparable speedup gauges "
                         "(all skipped or none present)");
    return regressions;
}

std::string
makeDoc(const char *run, const char *jobs, const char *metric,
        double value)
{
    std::ostringstream ss;
    ss << "{\n  \"schema\": \"dlsim-metrics-v1\",\n"
          "  \"version\": 1,\n  \"tool\": \"bench_wallclock\",\n"
          "  \"runs\": [\n    {\n      \"name\": \""
       << run << "\",\n      \"context\": {\n        \"jobs\": \""
       << jobs << "\"\n      },\n      \"metrics\": {\n"
       << "        \"" << metric
       << "\": {\n          \"kind\": \"gauge\",\n"
          "          \"value\": "
       << value << "\n        }\n      }\n    }\n  ]\n}\n";
    return ss.str();
}

/** Exercise the parser and the comparison policy without touching
 *  the filesystem. */
int
selfTest()
{
    int failures = 0;
    const auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "self-test FAIL: %s\n", what);
        }
    };

    const auto parse = [](const std::string &text) {
        Document doc;
        std::string error;
        if (!parseDocument(text, doc, error))
            doc.clear();
        return doc;
    };

    // Regression beyond tolerance must fail.
    {
        const auto committed = parse(makeDoc(
            "parallel", "4", "dlsim.wallclock.speedup", 2.0));
        const auto fresh = parse(makeDoc(
            "parallel", "4", "dlsim.wallclock.speedup", 1.5));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 1,
               "25% regression not caught");
    }
    // Within tolerance must pass.
    {
        const auto committed = parse(makeDoc(
            "parallel", "4", "dlsim.wallclock.speedup", 2.0));
        const auto fresh = parse(makeDoc(
            "parallel", "4", "dlsim.wallclock.speedup", 1.9));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 0,
               "5% wobble flagged");
    }
    // Different host class must be skipped, not failed.
    {
        const auto committed = parse(makeDoc(
            "parallel", "16", "dlsim.wallclock.speedup", 8.0));
        const auto fresh = parse(makeDoc(
            "parallel", "1", "dlsim.wallclock.speedup", 0.9));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 0,
               "cross-host-class compare not skipped");
    }
    // Non-speedup gauges (raw seconds) must never be judged.
    {
        const auto committed = parse(makeDoc(
            "serial", "1", "dlsim.wallclock.seconds", 1.0));
        const auto fresh = parse(makeDoc(
            "serial", "1", "dlsim.wallclock.seconds", 100.0));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 0,
               "raw seconds compared");
    }
    // Parser must handle a real multi-run document shape.
    {
        Document doc;
        std::string error;
        const std::string text =
            "{\"schema\":\"dlsim-metrics-v1\",\"version\":1,"
            "\"tool\":\"t\",\"runs\":[{\"name\":\"a\","
            "\"context\":{\"jobs\":\"2\",\"grid\":\"g\"},"
            "\"metrics\":{\"m\":{\"kind\":\"gauge\","
            "\"value\":1.5},\"n\":{\"kind\":\"counter\","
            "\"value\":7}}},{\"name\":\"b\",\"context\":{},"
            "\"metrics\":{}}]}";
        expect(parseDocument(text, doc, error) &&
                   doc.size() == 2 && doc["a"].jobs == "2" &&
                   doc["a"].gauges.at("m") == 1.5 &&
                   doc["a"].gauges.at("n") == 7.0,
               "compact document misparsed");
    }
    // Malformed input must be rejected, not misread.
    {
        Document doc;
        std::string error;
        expect(!parseDocument("{\"runs\":[{]}", doc, error),
               "malformed JSON accepted");
    }
    // Bind-policy arm columns ("<workload>.stable" /
    // "<workload>.demand") are judged per run name like any other:
    // a regression inside a policy arm fails.
    {
        const auto committed = parse(makeDoc(
            "apache.stable", "4", "dlsim.wallclock.speedup", 2.0));
        const auto fresh = parse(makeDoc(
            "apache.stable", "4", "dlsim.wallclock.speedup", 1.2));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 1,
               "stable-arm regression not caught");
    }
    // A fresh document that predates the policy-arm columns skips
    // them (reported, not failed) — committed artifacts may grow
    // columns before every host regenerates.
    {
        const auto committed = parse(makeDoc(
            "apache.demand", "4", "dlsim.wallclock.speedup", 2.0));
        const auto fresh = parse(makeDoc(
            "apache.enhanced", "4", "dlsim.wallclock.speedup",
            2.0));
        std::vector<std::string> rep;
        expect(compare(committed, fresh, 0.20, rep) == 0,
               "missing demand-arm run failed instead of skipped");
    }
    // The parser must surface the bind_policy context tag the
    // benches now attach to non-default loader arms.
    {
        Document doc;
        std::string error;
        const std::string text =
            "{\"schema\":\"dlsim-metrics-v1\",\"version\":1,"
            "\"tool\":\"t\",\"runs\":[{\"name\":\"a.demand\","
            "\"context\":{\"jobs\":\"2\","
            "\"bind_policy\":\"demand\"},"
            "\"metrics\":{\"dlsim.wallclock.speedup\":"
            "{\"kind\":\"gauge\",\"value\":1.5}}}]}";
        expect(parseDocument(text, doc, error) &&
                   doc.size() == 1 &&
                   doc["a.demand"].gauges.at(
                       "dlsim.wallclock.speedup") == 1.5,
               "bind_policy-tagged run misparsed");
    }

    if (failures == 0)
        std::printf("bench_guard self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string committedPath;
    std::string freshPath;
    double tolerance = 0.20;
    bool selfTestOnly = false;
    dlsim::stats::FlagTable(
        "bench_guard",
        "--committed FILE --fresh FILE [--tolerance X] | --self-test")
        .text("committed", "FILE", "the committed BENCH_wallclock.json",
              committedPath)
        .text("fresh", "FILE", "a freshly measured BENCH_wallclock.json",
              freshPath)
        .real("tolerance",
              "largest tolerated speedup regression (default 0.20)",
              tolerance)
        .toggle("self-test", "run the built-in checks and exit",
                selfTestOnly)
        .parse(argc, argv);
    if (selfTestOnly)
        return selfTest();
    if (committedPath.empty() || freshPath.empty()) {
        std::fprintf(stderr,
                     "bench_guard: --committed and --fresh are "
                     "required (or --self-test)\n");
        return 2;
    }

    std::string committedText;
    std::string freshText;
    std::string error;
    if (!readFile(committedPath, committedText, error) ||
        !readFile(freshPath, freshText, error)) {
        std::fprintf(stderr, "bench_guard: %s\n", error.c_str());
        return 2;
    }
    Document committed;
    Document fresh;
    if (!parseDocument(committedText, committed, error)) {
        std::fprintf(stderr, "bench_guard: %s: %s\n",
                     committedPath.c_str(), error.c_str());
        return 2;
    }
    if (!parseDocument(freshText, fresh, error)) {
        std::fprintf(stderr, "bench_guard: %s: %s\n",
                     freshPath.c_str(), error.c_str());
        return 2;
    }

    std::vector<std::string> report;
    const int regressions =
        compare(committed, fresh, tolerance, report);
    for (const std::string &line : report)
        std::printf("%s\n", line.c_str());
    if (regressions > 0) {
        std::fprintf(stderr,
                     "bench_guard: %d speedup gauge(s) regressed "
                     "more than %.0f%%\n",
                     regressions, tolerance * 100.0);
        return 1;
    }
    return 0;
}
