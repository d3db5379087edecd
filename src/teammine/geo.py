"""Great-circle distance between decimal-degree coordinates."""

from __future__ import annotations

from math import asin, cos, radians, sin, sqrt

EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance in kilometers; ingest's ``coordinates`` rule keeps
    every latitude in [-90, 90] and longitude in [-180, 180]."""
    phi1, phi2 = radians(lat1), radians(lat2)
    dphi = radians(lat2 - lat1)
    dlam = radians(lon2 - lon1)
    h = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * asin(min(1.0, sqrt(h)))
