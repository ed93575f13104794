"""Built-in experiment presets.

Three bundled scenarios: an index-curve sweep over a concave marginal
table (fig2), a four-component exact-versus-optimal comparison over short
horizons (fig3), and an eight-component long-horizon policy comparison
under memoryless attacks (fig4).
"""

FIG2 = {
    "components": [
        {
            "kind": "table",
            "p": [0.5, 0.7, 0.85, 0.95, 0.97, 0.975, 0.978, 0.98],
            "cost": 1.0,
        }
    ],
    "horizon": 7,
}

FIG3 = {
    "components": [
        {"kind": "table", "p": [0.5, 0.7, 0.85, 0.95, 0.97, 0.975], "cost": 0.8},
        {"kind": "table", "p": [0.3, 0.4, 0.48, 0.54, 0.57, 0.59], "cost": 1.0},
        {"kind": "table", "p": [0.36, 0.46, 0.5, 0.53, 0.55, 0.56], "cost": 1.2},
        {"kind": "table", "p": [0.6, 0.78, 0.9, 0.96, 0.98, 0.99], "cost": 0.9},
    ],
    "K": 1,
    "horizon": 6,
    "policies": ["whittle", "myopic"],
}

FIG4 = {
    "components": [
        {"kind": "markov", "q": 0.2, "cost": 2.5},
        {"kind": "markov", "q": 0.3, "cost": 2.0},
        {"kind": "markov", "q": 0.3, "cost": 1.8},
        {"kind": "markov", "q": 0.5, "cost": 1.5},
        {"kind": "markov", "q": 0.6, "cost": 1.2},
        {"kind": "markov", "q": 0.7, "cost": 1.0},
        {"kind": "markov", "q": 0.7, "cost": 0.6},
        {"kind": "markov", "q": 0.8, "cost": 0.5},
    ],
    "K": 2,
    "horizon": 500,
    "replications": 2000,
    "seed": 1,
    "policies": ["whittle", "myopic"],
}

PRESETS = {"fig2": FIG2, "fig3": FIG3, "fig4": FIG4}
