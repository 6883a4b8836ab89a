"""How many pseudo-confocal conics pass through each point of the plane?

For the family sum_i x_i^2 / (a_i^2 + tau_i lam) = 1 with signs (+, -) the
count is locally constant (n or n - 2 away from degeneracies) and jumps
across the null lines |x + y| = sqrt(2) and |x - y| = sqrt(2) of the base
conic's foci.  This script rasterizes the count over a window and writes a
gray-coded SVG of the partition.

The family ((1, 1), (1, -1)) is the caustic family of the unit-circle billiard
on the dx dy plane in the orthonormal null frame (u, v) = ((x + y) / sqrt 2,
(x - y) / sqrt 2), where dx dy = (du^2 - dv^2) / 2 and the circle is
u^2 + v^2 = 1: the chords of level lam touch the member -lam.
"""
import numpy as np

from lorentzbilliards import confocal, output

GRID = 161
WINDOW = 2.5


def main():
    fam = confocal.ConfocalFamily((1.0, 1.0), (1, -1))
    xs = np.linspace(-WINDOW, WINDOW, GRID)
    cell = xs[1] - xs[0]
    canvas = output.SvgCanvas(
        width=720, height=720, world=(-WINDOW, WINDOW, -WINDOW, WINDOW)
    )
    hist = {}
    for x in xs:
        for y in xs:
            ec = confocal.quadrics_through_point(fam, [x, y])
            count = -1 if ec.degenerate else ec.count
            hist[count] = hist.get(count, 0) + 1
            canvas.cell(x - cell / 2, y - cell / 2, cell, cell, output.count_color(count))
    c = np.sqrt(2.0)
    for s in (c, -c):
        # x + y = s and x - y = s, the null lines through the foci
        canvas.polyline([(-WINDOW, s + WINDOW), (WINDOW, s - WINDOW)], stroke="#cc3333", width=0.8)
        canvas.polyline([(-WINDOW, -WINDOW - s), (WINDOW, WINDOW - s)], stroke="#cc3333", width=0.8)
    canvas.save("confocal_partition.svg")
    print("count histogram over the grid (-1 marks degenerate points):")
    for count in sorted(hist):
        print(f"  {count:3d} conics: {hist[count]:6d} points")
    print("wrote confocal_partition.svg")


if __name__ == "__main__":
    main()
