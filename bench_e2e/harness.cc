#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>

#include "dse/pareto.hh"

namespace inca {
namespace bench {

// ---- Statistics ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
Quartiles::relativeSpread() const
{
    return median == 0.0 ? 0.0 : (q3 - q1) / median;
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    q.median = median(v);
    const long ld = long(v.size());
    if (ld == 1) {
        q.q1 = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"), n = 4.
    const long m = ld + 1;
    const auto cut = [&](long i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[std::size_t(j - 1)] * double(4 - delta) +
                v[std::size_t(j)] * double(delta)) /
               4.0;
    };
    q.q1 = cut(1);
    q.q3 = cut(3);
    return q;
}

// ---- Clocks --------------------------------------------------------

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_minflt);
}

double
systemSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

double
stealSeconds()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    return n == 8 ? double(v[7]) / double(sysconf(_SC_CLK_TCK)) : 0.0;
}

double
hostProbeSeconds()
{
    // A dependent xorshift-multiply chain: about 2^22 steps of pure
    // register arithmetic whose result is consumed, so it can be
    // neither vectorized nor removed.
    const double t0 = wallSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < (1 << 22); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0xbf58476d1ce4e5b9ULL;
    }
    const double t1 = wallSeconds();
    static std::atomic<std::uint64_t> sink;
    sink.store(x, std::memory_order_relaxed);
    return t1 - t0;
}

// ---- JSON ----------------------------------------------------------

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool
    parseDocument(Json &out)
    {
        ws();
        if (!value(out, 0))
            return false;
        ws();
        return pos_ == s_.size() || fail("trailing data");
    }

    std::string error;

  private:
    bool
    fail(const char *what)
    {
        if (error.empty())
            error = std::string(what) + " at byte " +
                    std::to_string(pos_);
        return false;
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::string w = word;
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > 512)
            return fail("nesting too deep");
        if (pos_ >= s_.size())
            return fail("unexpected end");
        const char c = s_[pos_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.string);
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            out.kind = Json::Kind::Number;
            return number(out.number);
        }
        if (literal("true")) {
            out.kind = Json::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = Json::Kind::Bool;
            return true;
        }
        if (literal("null")) {
            out.kind = Json::Kind::Null;
            return true;
        }
        return fail("unexpected character");
    }

    bool
    object(Json &out, int depth)
    {
        out.kind = Json::Kind::Object;
        ++pos_; // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            ws();
            std::string key;
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected member name");
            if (!string(key))
                return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            ws();
            Json member;
            if (!value(member, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Json &out, int depth)
    {
        out.kind = Json::Kind::Array;
        ++pos_; // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            ws();
            Json item;
            if (!value(item, depth + 1))
                return false;
            out.array.push_back(std::move(item));
            ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    static int
    hexDigit(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const unsigned char c = static_cast<unsigned char>(s_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(char(c));
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                return fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= s_.size() || hexDigit(s_[pos_]) < 0)
                        return fail("bad \\u escape");
                    code = code * 16 + unsigned(hexDigit(s_[pos_++]));
                }
                // Keep the code unit as UTF-8 (surrogates as-is: the
                // harness compares and strips, it never re-encodes).
                if (code < 0x80) {
                    out.push_back(char(code));
                } else if (code < 0x800) {
                    out.push_back(char(0xc0 | (code >> 6)));
                    out.push_back(char(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(char(0xe0 | (code >> 12)));
                    out.push_back(char(0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(char(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    number(double &out)
    {
        const std::size_t start = pos_;
        if (s_[pos_] == '-')
            ++pos_;
        if (pos_ < s_.size() && s_[pos_] == '0') {
            ++pos_;
            if (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                return fail("leading zero");
        } else if (!digits()) {
            return fail("bad number");
        }
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("bad fraction");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("bad exponent");
        }
        const std::string text = s_.substr(start, pos_ - start);
        out = std::strtod(text.c_str(), nullptr);
        if (!std::isfinite(out))
            return fail("number out of range");
        return true;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** End of the JSON string starting at @p i (one past the quote). */
std::size_t
skipString(const std::string &s, std::size_t i)
{
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;
        else if (s[i] == '"')
            return i + 1;
    }
    return s.size();
}

/** End of the JSON value starting at @p i (valid input assumed). */
std::size_t
skipValue(const std::string &s, std::size_t i)
{
    if (s[i] == '"')
        return skipString(s, i);
    if (s[i] == '{' || s[i] == '[') {
        int depth = 0;
        while (i < s.size()) {
            const char c = s[i];
            if (c == '"') {
                i = skipString(s, i);
                continue;
            }
            if (c == '{' || c == '[')
                ++depth;
            else if (c == '}' || c == ']')
                if (--depth == 0)
                    return i + 1;
            ++i;
        }
        return s.size();
    }
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           s[i] != ' ' && s[i] != '\n' && s[i] != '\t' && s[i] != '\r')
        ++i;
    return i;
}

bool
isWs(char c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

} // namespace

bool
parseJson(const std::string &text, Json &out, std::string *error)
{
    JsonParser p(text);
    out = Json{};
    const bool ok = p.parseDocument(out);
    if (!ok && error)
        *error = p.error;
    return ok;
}

std::string
withoutMember(const std::string &json, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    std::string out;
    out.reserve(json.size());
    std::size_t i = 0;
    while (i < json.size()) {
        if (json[i] != '"') {
            out.push_back(json[i++]);
            continue;
        }
        const std::size_t end = skipString(json, i);
        // A member name is a string followed by ':'.
        std::size_t colon = end;
        while (colon < json.size() && isWs(json[colon]))
            ++colon;
        const bool isKey = colon < json.size() && json[colon] == ':';
        if (!isKey || json.compare(i, end - i, quoted) != 0) {
            out.append(json, i, end - i);
            i = end;
            continue;
        }
        std::size_t v = colon + 1;
        while (v < json.size() && isWs(json[v]))
            ++v;
        std::size_t after = skipValue(json, v);
        // Drop the separating comma: the one after the member, or
        // else the one before it (the member was last).
        std::size_t next = after;
        while (next < json.size() && isWs(json[next]))
            ++next;
        if (next < json.size() && json[next] == ',') {
            i = next + 1;
        } else {
            while (!out.empty() && isWs(out.back()))
                out.pop_back();
            if (!out.empty() && out.back() == ',')
                out.pop_back();
            i = after;
        }
    }
    return out;
}

// ---- Digests -------------------------------------------------------

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---- Spans ---------------------------------------------------------

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
selfSeconds(const std::vector<SpanRecord> &spans, int id)
{
    const SpanRecord &p = spans[std::size_t(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const SpanRecord &s : spans) {
        if (s.parent != id)
            continue;
        const std::int64_t a = std::max(s.startNs, p.startNs);
        const std::int64_t b = std::min(s.endNs, p.endNs);
        if (b > a)
            kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, reach = p.startNs;
    for (const auto &[a, b] : kids) {
        const std::int64_t from = std::max(a, reach);
        if (b > from)
            covered += b - from;
        reach = std::max(reach, b);
    }
    return double(p.endNs - p.startNs - covered) * 1e-9;
}

int
SpanRecorder::begin(const std::string &name, int op)
{
    SpanRecord s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::end(int id)
{
    if (open_.empty() || open_.back() != id) {
        std::fprintf(stderr, "span %d closed out of order\n", id);
        std::abort();
    }
    spans_[std::size_t(id)].endNs = nowNs();
    open_.pop_back();
}

double
SpanRecorder::seconds(int id) const
{
    const SpanRecord &s = spans_[std::size_t(id)];
    return double(s.endNs - s.startNs) * 1e-9;
}

double
SpanRecorder::opSeconds(const std::string &name, int op) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].op == op && spans_[i].name == name &&
            spans_[i].endNs >= 0)
            total += seconds(int(i));
    return total;
}

std::string
SpanRecorder::chromeJson() const
{
    const std::int64_t epoch = spans_.empty() ? 0 : spans_[0].startNs;
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      double(s.startNs - epoch) * 1e-3,
                      double(s.endNs - s.startNs) * 1e-3);
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", "
           << buf << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << ", \"op\": " << s.op
           << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

// ---- Output checks -------------------------------------------------

namespace {

std::string
jsonProblem(const char *what, const std::string &json)
{
    Json doc;
    std::string err;
    if (parseJson(json, doc, &err))
        return "";
    return std::string(what) + " is not strict JSON: " + err;
}

} // namespace

std::vector<std::string>
checkServe(const serving::ServingReport &rep, const std::string &csv,
           const std::string &json)
{
    std::vector<std::string> errors;
    const std::uint64_t outcomes =
        rep.completed + rep.shed + rep.timedOut + rep.failed;
    if (rep.offered == 0)
        errors.push_back("serve offered no requests");
    if (outcomes != rep.offered)
        errors.push_back("serve outcomes " + std::to_string(outcomes) +
                         " != offered " + std::to_string(rep.offered));
    const std::uint64_t lines =
        std::uint64_t(std::count(csv.begin(), csv.end(), '\n'));
    if (lines == 0 || lines - 1 != rep.offered)
        errors.push_back("requests CSV has " +
                         std::to_string(lines ? lines - 1 : 0) +
                         " rows, offered " +
                         std::to_string(rep.offered));
    const std::string bad = jsonProblem("serve report JSON", json);
    if (!bad.empty())
        errors.push_back(bad);
    return errors;
}

std::vector<std::string>
checkExplore(const dse::ExploreResult &res, std::uint64_t budget,
             const std::string &json)
{
    std::vector<std::string> errors;
    if (res.evaluations.size() != budget)
        errors.push_back("explore evaluated " +
                         std::to_string(res.evaluations.size()) +
                         " of budget " + std::to_string(budget));
    if (res.frontier.empty())
        errors.push_back("explore frontier is empty");
    for (std::size_t i = 0; i < res.frontier.size(); ++i) {
        const dse::Evaluation &a = res.frontier[i];
        if (!a.scored || !a.feasible || a.objectives.empty())
            errors.push_back("frontier point " +
                             std::to_string(a.candidate.index) +
                             " is not a scored feasible point");
        for (std::size_t j = 0; j < res.frontier.size(); ++j) {
            const dse::Evaluation &b = res.frontier[j];
            if (i != j && a.objectives.size() == b.objectives.size() &&
                dse::dominates(a.objectives, b.objectives))
                errors.push_back(
                    "frontier point " +
                    std::to_string(a.candidate.index) +
                    " dominates frontier point " +
                    std::to_string(b.candidate.index));
        }
    }
    const std::string bad = jsonProblem("frontier JSON", json);
    if (!bad.empty())
        errors.push_back(bad);
    return errors;
}

std::vector<std::string>
checkCampaign(const reliability::CampaignResult &res, std::size_t points,
              int trials, const std::string &json)
{
    std::vector<std::string> errors;
    const std::uint64_t want = std::uint64_t(points) * std::uint64_t(trials);
    if (res.trialsRun != want)
        errors.push_back("campaign ran " + std::to_string(res.trialsRun) +
                         " trials, expected " + std::to_string(want));
    std::size_t seen = 0;
    for (const auto &curve : res.curves) {
        for (const auto &p : curve.points) {
            ++seen;
            for (const double a : {p.accuracy, p.accuracyMin,
                                   p.accuracyMax, p.idealAccuracy})
                if (!(a >= 0.0 && a <= 1.0))
                    errors.push_back("campaign " + curve.engine + " " +
                                     p.sweep + " accuracy " +
                                     std::to_string(a) +
                                     " outside [0, 1]");
        }
    }
    if (seen != points)
        errors.push_back("campaign has " + std::to_string(seen) +
                         " points, expected " + std::to_string(points));
    const std::string bad = jsonProblem("campaign JSON", json);
    if (!bad.empty())
        errors.push_back(bad);
    return errors;
}

} // namespace bench
} // namespace inca
