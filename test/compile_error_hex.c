int main() {
  return 0x;
}
