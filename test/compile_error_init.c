int g[2] = {1, 2, 3};
int main() {
  return g[0];
}
