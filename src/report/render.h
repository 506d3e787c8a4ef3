// Renderers over report::Report: every human- or machine-readable projection
// of a diagnosis is a pure view of the one typed aggregate.
//
//   kText  -- the CLI's terminal report (what `snorlax_cli diagnose` prints),
//   kJson  -- one JSON document carrying the full aggregate,
//   kSarif -- SARIF 2.1.0, one result per confirmed pattern, so the report
//             loads into standard static-analysis viewers and CI annotators.
//
// The module pointer is optional everywhere: with it, instruction ids render
// as disassembled text with debug locations (and SARIF gets physical
// locations); without it, ids render numerically and SARIF falls back to
// logical locations.
#ifndef SNORLAX_REPORT_RENDER_H_
#define SNORLAX_REPORT_RENDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "engine/artifact_store.h"
#include "engine/pass.h"
#include "report/report.h"

namespace snorlax::report {

enum class Format : uint8_t { kText, kJson, kSarif };

const char* FormatName(Format format);
// Accepts "text" | "json" | "sarif"; false (out untouched) otherwise.
bool ParseFormat(std::string_view name, Format* out);

std::string Render(const Report& report, Format format,
                   const ir::Module* module = nullptr);
std::string RenderText(const Report& report, const ir::Module* module = nullptr);
std::string RenderJson(const Report& report, const ir::Module* module = nullptr);
std::string RenderSarif(const Report& report, const ir::Module* module = nullptr);

// One row of `snorlax_cli diagnose --explain`: the engine's pass-boundary
// trace joined with the artifact store's residency verdict for that pass's
// output (resident / evicted / absent) -- the distinction between "never
// computed" and "computed but evicted by the per-kind FIFO cap".
struct PassRow {
  engine::PassTrace trace;
  engine::ResidencyState residency = engine::ResidencyState::kAbsent;
};

std::string RenderExplainTable(const std::vector<PassRow>& rows,
                               const engine::ArtifactStore::Stats& store);

}  // namespace snorlax::report

#endif  // SNORLAX_REPORT_RENDER_H_
