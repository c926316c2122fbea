/**
 * @file
 * Trace import/export: persist request traces as CSV so experiments
 * can be replayed, shared, or generated by external tooling (e.g.
 * real Dolly length histograms extracted offline).
 *
 * Format: header "id,input_len,output_len[,arrival_s]" followed by
 * one row per request. The arrival column is optional; traces
 * without it load with arrival 0.
 */

#ifndef PAPI_LLM_TRACE_IO_HH
#define PAPI_LLM_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "llm/arrival.hh"
#include "llm/request.hh"

namespace papi::llm {

/** Write a timed trace as CSV. */
void writeTraceCsv(std::ostream &os,
                   const std::vector<TimedRequest> &trace);

/** Write an untimed trace as CSV (arrival column omitted). */
void writeTraceCsv(std::ostream &os,
                   const std::vector<Request> &trace);

/**
 * Parse a CSV trace. Fatal on malformed rows, duplicate ids, zero
 * output lengths, or unsorted arrivals; errors cite the offending
 * position as "source:line". @p source names the stream in those
 * messages (a file path for loadTraceFile, "<trace>" by default
 * for in-memory streams).
 */
std::vector<TimedRequest> readTraceCsv(std::istream &is,
                                       const std::string &source =
                                           "<trace>");

/** Write @p trace to the file @p path (fatal on I/O errors). */
void saveTraceFile(const std::string &path,
                   const std::vector<TimedRequest> &trace);
/** Read the trace file @p path (fatal on I/O or parse errors). */
std::vector<TimedRequest> loadTraceFile(const std::string &path);

} // namespace papi::llm

#endif // PAPI_LLM_TRACE_IO_HH
