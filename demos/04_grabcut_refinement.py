"""Recovering a missing region of a mask from image colors alone."""

import numpy as np

import eaparse as ea

# scene: a red disk on a blue background
size = 32
yy, xx = np.mgrid[0:size, 0:size]
disk = (((yy - 16) ** 2 + (xx - 16) ** 2) <= 81).astype(np.uint8)
image = np.zeros((size, size, 3), dtype=np.uint8)
image[:] = (20, 30, 200)
image[disk == 1] = (210, 40, 35)

# the model's mask lost a 6x6 patch in the middle of the disk
init = disk.copy()
init[13:19, 13:19] = 0
print("true disk pixels:", int(disk.sum()), " initial mask pixels:", int(init.sum()))
print("initial Jaccard:", round(ea.region_jaccard(init, disk, 1), 4))

# the refinement erodes/dilates the mask into a trimap, fits one color
# mixture per side, and lets a minimum graph cut relabel the uncertain band;
# it works in a window around the mask (here the whole 32x32 frame)
params = ea.GrabcutParams(components_k=5, gamma=50.0, iterations=5, rng_seed=0)
refined, trace = ea.grabcut_refine(image, init, params)
print("refined Jaccard:", round(ea.region_jaccard(refined, disk, 1), 4))

# each cut minimizes the labeling energy for that round's color models; a
# refit can still raise it, but on this clean scene the trace does not rise
print("energy trace:", [round(t, 2) for t in trace])
print("non-increasing here:", all(b <= a for a, b in zip(trace, trace[1:])))

# reruns are bit-identical: fitting seeds are fixed, the solver order is fixed
refined2, trace2 = ea.grabcut_refine(image, init, params)
print("rerun identical:", bool((refined == refined2).all()) and trace == trace2)

# the same refinement, lifted to one class of a multi-class label map
labels = init * 7
fixed = ea.refine_class(labels, image, class_id=7, params=params)
print("class 7 refined, hole filled:", int((fixed == 7).sum()), "pixels")
