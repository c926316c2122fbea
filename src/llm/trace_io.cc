#include "llm/trace_io.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "sim/logging.hh"

namespace papi::llm {

void
writeTraceCsv(std::ostream &os,
              const std::vector<TimedRequest> &trace)
{
    os << "id,input_len,output_len,arrival_s\n";
    for (const auto &t : trace) {
        os << t.request.id << "," << t.request.inputLen << ","
           << t.request.outputLen << "," << t.arrivalSeconds << "\n";
    }
}

void
writeTraceCsv(std::ostream &os, const std::vector<Request> &trace)
{
    os << "id,input_len,output_len\n";
    for (const auto &r : trace) {
        os << r.id << "," << r.inputLen << "," << r.outputLen
           << "\n";
    }
}

namespace {

/**
 * Extract one unsigned field. `>>` into an unsigned type reads a
 * leading '-' and wraps the value around, so a '-' fails the row
 * instead.
 */
template <typename T>
void
readUnsigned(std::istream &row, T &out)
{
    row >> std::ws;
    if (row.peek() == '-')
        row.setstate(std::ios::failbit);
    row >> out;
}

} // namespace

std::vector<TimedRequest>
readTraceCsv(std::istream &is, const std::string &source)
{
    std::string header;
    if (!std::getline(is, header))
        sim::fatal("readTraceCsv: ", source, ": empty input");

    bool timed;
    if (header == "id,input_len,output_len,arrival_s") {
        timed = true;
    } else if (header == "id,input_len,output_len") {
        timed = false;
    } else {
        sim::fatal("readTraceCsv: ", source,
                   ":1: unrecognized header '", header, "'");
    }

    std::vector<TimedRequest> out;
    std::set<std::uint64_t> seen_ids;
    std::string line;
    std::size_t line_no = 1;
    double last_arrival = 0.0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream row(line);
        TimedRequest t;
        char c1 = 0, c2 = 0, c3 = 0;
        readUnsigned(row, t.request.id);
        row >> c1;
        readUnsigned(row, t.request.inputLen);
        row >> c2;
        readUnsigned(row, t.request.outputLen);
        if (timed)
            row >> c3 >> t.arrivalSeconds;
        // Anything but whitespace after the last field is malformed.
        std::string rest;
        if (row.fail() || c1 != ',' || c2 != ',' ||
            (timed && c3 != ',') || (row >> rest))
            sim::fatal("readTraceCsv: ", source, ":", line_no,
                       ": malformed row '", line, "'");
        if (t.request.outputLen == 0)
            sim::fatal("readTraceCsv: ", source, ":", line_no,
                       ": zero output length");
        if (!seen_ids.insert(t.request.id).second)
            sim::fatal("readTraceCsv: ", source, ":", line_no,
                       ": duplicate id ", t.request.id);
        if (t.arrivalSeconds < last_arrival)
            sim::fatal("readTraceCsv: ", source, ":", line_no,
                       ": unsorted arrivals");
        last_arrival = t.arrivalSeconds;
        out.push_back(t);
    }
    return out;
}

void
saveTraceFile(const std::string &path,
              const std::vector<TimedRequest> &trace)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("saveTraceFile: cannot open '", path, "'");
    writeTraceCsv(out, trace);
    if (!out)
        sim::fatal("saveTraceFile: write failed for '", path, "'");
}

std::vector<TimedRequest>
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("loadTraceFile: cannot open '", path, "'");
    return readTraceCsv(in, path);
}

} // namespace papi::llm
