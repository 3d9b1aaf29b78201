#include "model/reference_points.h"

#include "base/logging.h"
#include "base/strings.h"

namespace dsa::model {

const std::vector<RefPoint> &
referencePoints()
{
    // Approximate published numbers scaled to 28 nm / 1 GHz:
    //  - Softbrain [65]: ISCA'17, 8-tile fabric; per-tile numbers
    //    scaled from 55 nm.
    //  - SPU [20]: MICRO'19, 28 nm-class estimate.
    //  - DianNao [12]: 65 nm, 3.02 mm^2 / 485 mW -> ~(65/28)^2 area
    //    scaling and Vdd-adjusted power.
    //  - SCNN [70]: 16 nm tile, scaled *up* to 28 nm; we anchor a
    //    single-tile-equivalent configuration comparable to the
    //    DSAGEN_SparseCNN fabric size.
    static const std::vector<RefPoint> points = {
        {"Softbrain", {0.58, 160.0}, false},
        {"SPU", {1.36, 330.0}, false},
        {"Triggered", {0.88, 240.0}, false},
        {"MAERI", {0.65, 180.0}, false},
        {"REVEL", {0.78, 210.0}, false},
        {"DianNao", {0.56, 213.0}, true},
        {"SCNN", {0.92, 280.0}, true},
    };
    return points;
}

const RefPoint &
referencePoint(const std::string &name)
{
    for (const auto &p : referencePoints())
        if (p.name == name)
            return p;
    std::vector<std::string> valid;
    for (const auto &p : referencePoints())
        valid.push_back(p.name);
    DSA_FATAL("unknown reference point '", name, "'",
              suggestName(name, valid));
}

} // namespace dsa::model
