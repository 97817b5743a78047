"""One witness target per rule: prop -> (model name, target expression).

Each is assembled from atlas lines so that it has a witness by
construction; the C4.2 target is 3H minus the P4.6 target (liaison).
"""

TARGETS = {
    "P2.2": ("fermat4", "H + L[01|23](0,0) + L[02|13](0,1)"),
    "P4.4": ("fermat5", "H + L[01|23](0,0) + L[02|13](0,1)"),
    "P4.5": ("fermat5", "H + L[01|23](0,0) + L[01|23](0,1) + L[01|23](0,2) "
                        "+ L[01|23](1,0) + L[01|23](2,1)"),
    "P4.6": ("fermat5", "H - L[03|12](4,0) + L[01|23](0,0) + L[02|13](0,1)"),
    "C4.2": ("fermat5", "2*H + L[03|12](4,0) - L[01|23](0,0) - L[02|13](0,1)"),
    "P4.7": ("fermat5", "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)"),
    "C4.3": ("fermat5", "H + L[01|23](0,0) + L[02|13](0,1) + L[02|13](0,2)"),
    "P4.8": ("fermat5", "H - L[02|13](0,0) + L[01|23](0,0)"),
}
