// SVG rendering of unit disk deployments — visual inspection of clusterings.
//
// Renders nodes as dots, radio links as thin segments, and any number of
// highlighted node layers (e.g. the k-fold dominating set, then the
// connectors added by the CDS extension) in distinct colors. Pure text
// output; no external dependencies.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "geom/udg.h"
#include "graph/graph.h"

namespace ftc::geom {

/// One overlay of emphasized nodes.
struct SvgLayer {
  std::vector<graph::NodeId> nodes;
  std::string color = "#1f77b4";  ///< CSS color of the layer's markers
  double radius = 3.5;            ///< marker radius in px
  std::string label;              ///< legend entry (omitted when empty)
};

/// Writes an SVG of `udg` with the given overlay layers to `os`: an
/// 800 px square canvas with a 20 px margin, radio links as light grey
/// segments and nodes as small grey dots under the layers.
void write_svg(std::ostream& os, const UnitDiskGraph& udg,
               std::span<const SvgLayer> layers);

/// Convenience: writes the SVG to a file. Throws std::runtime_error on IO
/// failure.
void save_svg(const std::string& path, const UnitDiskGraph& udg,
              std::span<const SvgLayer> layers);

}  // namespace ftc::geom
